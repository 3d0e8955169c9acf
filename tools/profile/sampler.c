/* A sampling profiler to LD_PRELOAD into any process built with frame
 * pointers; it needs nothing but a C compiler and, to read its output,
 * `nm` (see symbolize.py).
 *
 *   gcc -O2 -shared -fPIC -o libsampler.so sampler.c
 *   SAMPLER_OUT=prof LD_PRELOAD=./libsampler.so <program> <args>
 *
 * ITIMER_PROF raises SIGPROF every PERIOD_US of process CPU time; the
 * kernel may deliver fewer (about 170 a second on a 2-CPU container).
 * Each sample is the interrupted RIP plus the return addresses
 * of the frame-pointer chain, kept in a preallocated buffer. At exit the
 * process's /proc/self/maps and its samples are written to
 * $SAMPLER_OUT.<pid>.
 *
 * Preload the program itself, not a wrapper script that execs it: the
 * armed timer survives execve while the handler does not, so a SIGPROF
 * that lands before the new image's constructor runs kills it. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 48
#define MAX_SAMPLES (1 << 15)
#define MAX_FRAME 65536
#define PERIOD_US 1000

static uintptr_t samples[MAX_SAMPLES][DEPTH + 1]; /* [0]: frames kept */
static unsigned long taken;

/* gperftools' strict unwinding rule: a caller's frame lies above its
 * callee's, 8-aligned and less than MAX_FRAME away. Anything else — RBP
 * used as a general register by code built without frame pointers — ends
 * the chain instead of being dereferenced. */
static int plausible(uintptr_t below, uintptr_t fp) {
    return (fp & 7) == 0 && fp > below && fp - below < MAX_FRAME;
}

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    mcontext_t *m = &((ucontext_t *)context)->uc_mcontext;
    uintptr_t *s = samples[i], n = 0, fp = m->gregs[REG_RBP];
    s[++n] = m->gregs[REG_RIP];
    for (uintptr_t below = m->gregs[REG_RSP] - 1; n < DEPTH && plausible(below, fp);) {
        s[++n] = ((uintptr_t *)fp)[1];
        below = fp;
        fp = ((uintptr_t *)fp)[0];
    }
    s[0] = n;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096], line[4096];
    const char *base = getenv("SAMPLER_OUT");
    snprintf(path, sizeof path, "%s.%d", base ? base : "sampler", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    while (out && maps && fgets(line, sizeof line, maps))
        fputs(line, out);
    if (out) {
        fputs("--- samples\n", out);
        unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
        for (unsigned long i = 0; i < n; i++, fputc('\n', out))
            for (uintptr_t k = 1; k <= samples[i][0]; k++)
                fprintf(out, k > 1 ? " %lx" : "%lx", (unsigned long)samples[i][k]);
        fclose(out);
    }
    if (maps)
        fclose(maps);
}
