/* SIGPROF program-counter sampler for x86-64 Linux, loaded into any binary
 * with LD_PRELOAD.
 *
 *   cc -O2 -shared -fPIC -o pcsample.so tools/pcsample/pcsample.c
 *   LD_PRELOAD=$PWD/pcsample.so ./build-rel/bench/fig5_srv --jobs 1 --csv f5.csv
 *   python3 tools/pcsample/report.py pcsample.*.txt
 *
 * Every millisecond of process CPU time (ITIMER_PROF, all threads) the
 * handler stores the interrupted program counter.  At exit the samples are
 * written to pcsample.<pid>.txt in the working directory, one line each:
 * the address inside its ELF object, as nm and addr2line number it, and the
 * object's path.  Those addresses do not move with the load address, so
 * runs under ASLR merge.  With ASan, its runtime must come first in
 * LD_PRELOAD; this sampler is meant for plain builds. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAP (1u << 20)
static uintptr_t pcs[CAP];
static unsigned long taken;

static void on_prof(int sig, siginfo_t* si, void* ctx) {
  (void)sig;
  (void)si;
  const ucontext_t* uc = ctx;
  const unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (i < CAP) pcs[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

struct lookup {
  uintptr_t pc;
  uintptr_t addr; /* pc minus the object's load bias */
  const char* path;
};

static int find_object(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  struct lookup* q = data;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    const uintptr_t lo = info->dlpi_addr + ph->p_vaddr;
    if (ph->p_type == PT_LOAD && q->pc >= lo && q->pc < lo + ph->p_memsz) {
      q->addr = q->pc - info->dlpi_addr;
      q->path = info->dlpi_name;
      return 1;
    }
  }
  return 0;
}

__attribute__((destructor)) static void finish(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  char name[64];
  snprintf(name, sizeof name, "pcsample.%d.txt", (int)getpid());
  FILE* f = fopen(name, "w");
  if (f == NULL) return;
  const unsigned long all = __atomic_load_n(&taken, __ATOMIC_RELAXED);
  const unsigned long n = all < CAP ? all : CAP;
  for (unsigned long i = 0; i < n; ++i) {
    struct lookup q = {pcs[i], 0, NULL};
    if (dl_iterate_phdr(find_object, &q) != 0)
      fprintf(f, "%lx %s\n", (unsigned long)q.addr, q.path[0] != '\0' ? q.path : exe);
    else
      fprintf(f, "%lx ?\n", (unsigned long)pcs[i]);
  }
  fclose(f);
}
