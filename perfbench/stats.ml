(* Order statistics shared by every workload. A failed or unanswered
   operation is recorded as [infinity], so it ranks slower than every
   latency limit. *)

(* A growable float buffer: per-call latency samples run into millions. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 4096 0.; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0. in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p] percent of all samples at or below it. [nan] when empty. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.

let sum a = Array.fold_left ( +. ) 0. a

let mean a =
  if Array.length a = 0 then nan else sum a /. float_of_int (Array.length a)

(* Monotonic nanosecond clock (CLOCK_MONOTONIC). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Exact nanosecond histogram for per-call latencies: one counter per ns
   below [cap], raw samples above. Memory stays fixed however many calls a
   run makes, and percentiles are exact. *)
type hist = { counts : int array; over : buf; mutable n : int; mutable total : int }

let hist_cap = 200_000

let hist () = { counts = Array.make hist_cap 0; over = buf (); n = 0; total = 0 }

let record h ns =
  let ns = max 0 ns in
  if ns < hist_cap then h.counts.(ns) <- h.counts.(ns) + 1 else push h.over (float_of_int ns);
  h.n <- h.n + 1;
  h.total <- h.total + ns

(* Nearest-rank percentile in ns, as [percentile_sorted]. *)
let hist_percentile h p =
  if h.n = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int h.n /. 100.))) in
    let rec walk i acc =
      if i = hist_cap then (sorted (contents h.over)).(rank - acc - 1)
      else
        let acc' = acc + h.counts.(i) in
        if acc' >= rank then float_of_int i else walk (i + 1) acc'
    in
    walk 0 0

let hist_mean h = if h.n = 0 then nan else float_of_int h.total /. float_of_int h.n
