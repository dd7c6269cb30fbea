/* CPU time of another process, read through its POSIX CPU-time clock
   (nanosecond grain; /proc/<pid>/stat counts only 1/100 s ticks). */
#include <time.h>
#include <sys/types.h>
#include <caml/mlvalues.h>

value perfbench_process_cpu_ns(value pid)
{
  clockid_t clk;
  struct timespec ts;
  if (clock_getcpuclockid((pid_t)Long_val(pid), &clk) != 0) return Val_long(-1);
  if (clock_gettime(clk, &ts) != 0) return Val_long(-1);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
