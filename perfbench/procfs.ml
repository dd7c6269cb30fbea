(* Process facts read from /proc (Linux). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* user+sys CPU of a whole process (all threads), in ns. *)
external process_cpu_ns : int -> int = "perfbench_process_cpu_ns"

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' s)
  in
  let kb = Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id in
  float_of_int kb /. 1024.

(* user+sys CPU of each thread of a process, in clock ticks (10 ms), by
   thread id. *)
let thread_cpu_ticks pid =
  let task = Printf.sprintf "/proc/%d/task" pid in
  Sys.readdir task |> Array.to_list |> List.map int_of_string |> List.sort Int.compare
  |> List.filter_map (fun tid ->
         match read_file (Printf.sprintf "%s/%d/stat" task tid) with
         | stat ->
             (* the fields after the command name, which is in parentheses *)
             let from = String.rindex stat ')' + 2 in
             let f = Array.of_list (String.split_on_char ' ' (String.sub stat from (String.length stat - from))) in
             Some (tid, int_of_string f.(11) + int_of_string f.(12))
         | exception Sys_error _ -> None)

(* user+sys CPU of this process, seconds (getrusage: microsecond grain). *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Runs [f] with the runtime-events GC profiler on; returns [f]'s result
   and the GC pause time it saw, in microseconds. *)
let with_gc_pauses f =
  let sum () =
    match Whynot.Obs.find_histogram "runtime.gc.pause.duration_us" with
    | Some h -> h.Whynot.Obs.h_sum
    | None -> 0
  in
  Whynot.Obs.Rt_events.start ();
  let before = sum () in
  let v = f () in
  ignore (Whynot.Obs.Rt_events.poll_now ());
  Whynot.Obs.Rt_events.stop ();
  (v, sum () - before)
