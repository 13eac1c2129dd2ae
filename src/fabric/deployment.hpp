// Deployment model: web/worker role instances running on VMs inside one
// hosted service, each with its own NIC, all sharing a storage account (the
// CloudEnvironment).
//
//   fabric::Deployment dep(env);
//   dep.add_web_role(VmSize::kSmall);
//   dep.add_worker_roles(8, VmSize::kSmall);
//   dep.start_workers([](fabric::RoleContext& ctx) -> sim::Task<void> {
//     auto queue = ctx.account().create_cloud_queue_client()...;
//     ...
//   });
//   env.simulation().run();
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <vector>

#include "azure/cloud_storage_account.hpp"
#include "azure/environment.hpp"
#include "fabric/vm_size.hpp"
#include "netsim/nic.hpp"
#include "simcore/simulation.hpp"
#include "simcore/sync.hpp"
#include "simcore/task.hpp"

namespace fabric {

enum class RoleKind { kWeb, kWorker };

/// Everything a role's entry point can touch: its identity, its VM's NIC,
/// and a storage account bound to this instance.
class RoleContext {
 public:
  RoleContext(azure::CloudEnvironment& env, RoleKind kind, int id, VmSize size)
      : env_(env),
        kind_(kind),
        id_(id),
        size_(size),
        nic_(env.simulation(), nic_config_of(size)),
        account_(env, nic_) {}

  RoleKind kind() const noexcept { return kind_; }
  int id() const noexcept { return id_; }
  VmSize vm_size() const noexcept { return size_; }
  const VmSpec& vm_spec() const noexcept { return spec_; }

  sim::Simulation& simulation() noexcept { return env_.simulation(); }
  azure::CloudEnvironment& environment() noexcept { return env_; }
  netsim::Nic& nic() noexcept { return nic_; }
  azure::CloudStorageAccount& account() noexcept { return account_; }

 private:
  azure::CloudEnvironment& env_;
  RoleKind kind_;
  int id_;
  VmSize size_;
  VmSpec spec_ = spec_of(size_);
  netsim::Nic nic_;
  azure::CloudStorageAccount account_;
};

/// A hosted service: one optional web role plus N worker role instances.
class Deployment {
 public:
  /// A role entry point: a coroutine taking the role's context.
  using EntryPoint = std::function<sim::Task<void>(RoleContext&)>;

  explicit Deployment(azure::CloudEnvironment& env)
      : env_(env), done_(env.simulation()) {}

  /// Adds the web role instance (at most one, as in Azure's default model).
  RoleContext& add_web_role(VmSize size = VmSize::kSmall) {
    assert(!web_);
    web_ = std::make_unique<RoleContext>(env_, RoleKind::kWeb, 0, size);
    return *web_;
  }

  /// Adds `count` worker role instances.
  void add_worker_roles(int count, VmSize size = VmSize::kSmall) {
    for (int i = 0; i < count; ++i) {
      workers_.push_back(std::make_unique<RoleContext>(
          env_, RoleKind::kWorker, static_cast<int>(workers_.size()), size));
    }
  }

  RoleContext& web_role() {
    assert(web_);
    return *web_;
  }
  RoleContext& worker(int i) { return *workers_.at(static_cast<size_t>(i)); }

  /// Launches the web role's entry point.
  void start_web(EntryPoint entry) { start_one(web_role(), std::move(entry)); }

  /// Launches every worker role instance with the same entry point.
  void start_workers(EntryPoint entry) {
    for (auto& w : workers_) start_one(*w, entry);
  }

  /// Awaitable: resumes when every launched role entry point has returned.
  auto wait_all() { return done_.wait(); }

 private:
  void start_one(RoleContext& ctx, EntryPoint entry) {
    done_.add();
    env_.simulation().spawn(run_role(ctx, std::move(entry)));
  }

  sim::Task<void> run_role(RoleContext& ctx, EntryPoint entry) {
    // `entry` is held by value in this coroutine's frame for the entire
    // await below. That is what makes capturing lambdas safe as entry
    // points (CP.51's hazard is a closure dying before resumption — here
    // the closure provably outlives the role's coroutine).
    co_await entry(ctx);
    done_.done();
  }

  azure::CloudEnvironment& env_;
  std::unique_ptr<RoleContext> web_;
  std::vector<std::unique_ptr<RoleContext>> workers_;
  sim::WaitGroup done_;
};

}  // namespace fabric
