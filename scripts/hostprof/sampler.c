// SIGPROF sampler, loaded with LD_PRELOAD (see scripts/hostprof.sh).
//
// Every ITIMER_PROF tick (process CPU time) records the interrupted PC plus
// the return addresses found by walking the frame-pointer chain, so the
// profiled binary must be built with -fno-omit-frame-pointer. Only the main
// thread's stack is walked; samples taken on other threads keep their PC.
// At exit the samples (one line of hex addresses per sample, leaf first) go
// to $HOSTPROF_OUT.<pid>.txt and a copy of /proc/self/maps to
// $HOSTPROF_OUT.<pid>.maps, for scripts/hostprof/report.py.
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxSamples = 1 << 16, kMaxDepth = 64, kIntervalUs = 1000 };

static uintptr_t samples[kMaxSamples][kMaxDepth];
static unsigned char depths[kMaxSamples];
static volatile sig_atomic_t count;
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (count >= kMaxSamples) return;
  const ucontext_t* uc = context;
  uintptr_t* out = samples[count];
  int depth = 0;
  out[depth++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  if (sp < stack_lo || sp >= stack_hi) fp = 0;  // not the main thread
  while (depth < kMaxDepth && fp >= sp && fp + 16 <= stack_hi && !(fp & 7)) {
    const uintptr_t next = ((const uintptr_t*)fp)[0];
    const uintptr_t ret = ((const uintptr_t*)fp)[1];
    if (ret == 0) break;
    out[depth++] = ret;
    if (next <= fp) break;
    fp = next;
  }
  depths[count] = (unsigned char)depth;
  count = count + 1;
}

__attribute__((constructor)) static void hostprof_start(void) {
  pthread_attr_t attr;
  void* base = NULL;
  size_t size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
  }
  stack_lo = (uintptr_t)base;
  stack_hi = (uintptr_t)base + size;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every = {{0, kIntervalUs}, {0, kIntervalUs}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void hostprof_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* prefix = getenv("HOSTPROF_OUT");
  char path[4096];
  snprintf(path, sizeof path, "%s.%d.txt", prefix ? prefix : "hostprof",
           (int)getpid());
  FILE* f = fopen(path, "w");
  if (f == NULL) return;
  for (int i = 0; i < count; ++i) {
    for (int d = 0; d < depths[i]; ++d) {
      fprintf(f, d ? " %lx" : "%lx", (unsigned long)samples[i][d]);
    }
    fputc('\n', f);
  }
  fclose(f);
  char maps_path[4096 + 8];
  snprintf(maps_path, sizeof maps_path, "%.*s.maps", (int)(strlen(path) - 4),
           path);
  FILE* in = fopen("/proc/self/maps", "r");
  FILE* out = fopen(maps_path, "w");
  char line[4096];
  while (in != NULL && out != NULL && fgets(line, sizeof line, in) != NULL) {
    fputs(line, out);
  }
  if (in != NULL) fclose(in);
  if (out != NULL) fclose(out);
}
