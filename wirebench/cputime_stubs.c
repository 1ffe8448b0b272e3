/* CPU time of the calling thread, in seconds, with the resolution of
   clock_gettime (nanoseconds).  The kernel charges a thread only for
   time it ran: time the host takes the virtual CPU away and time spent
   waiting for a CPU are not counted. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value wirebench_thread_cpu_s(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
