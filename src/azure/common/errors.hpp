// Azure storage error hierarchy. The backend's throttling error types are
// shared (the SDK surfaces them directly); service-semantic failures are
// defined here.
#pragma once

#include <string>

#include "cluster/errors.hpp"

namespace azure {

using cluster::PartitionMovedError;
using cluster::RegionMovedError;
using cluster::ServerBusyError;
using cluster::StorageError;

// Injected infrastructure faults (see faults/errors.hpp): transient from the
// client's point of view, retried when RetryPolicy::retry_faults is set.
using cluster::ChecksumMismatchError;
using cluster::ConnectionResetError;
using cluster::FaultError;
using cluster::TimeoutError;

/// Requested container/blob/queue/table/entity does not exist (HTTP 404).
class NotFoundError : public StorageError {
 public:
  explicit NotFoundError(const std::string& what) : StorageError(what) {}
};

/// Resource already exists where it must not (HTTP 409).
class ConflictError : public StorageError {
 public:
  explicit ConflictError(const std::string& what) : StorageError(what) {}
};

/// ETag condition failed on update/delete (HTTP 412).
class PreconditionFailedError : public StorageError {
 public:
  explicit PreconditionFailedError(const std::string& what)
      : StorageError(what) {}
};

/// Request violates a documented service limit (HTTP 400).
class InvalidArgumentError : public StorageError {
 public:
  explicit InvalidArgumentError(const std::string& what)
      : StorageError(what) {}
};

}  // namespace azure
