type counter = int Atomic.t
type gauge = int Atomic.t

type histogram = {
  bounds : int array; (* strictly increasing upper bounds *)
  buckets : int Atomic.t array; (* length bounds + 1; last = +inf *)
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
}

type span_cells = {
  s_count : int Atomic.t;
  total_ns : int Atomic.t;
  max_ns : int Atomic.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of histogram
  | Span of span_cells

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"
  | Span _ -> "span"

(* Get-or-create under the registry lock; the returned handle is then
   updated lock-free. Handles are meant to be obtained once (at module
   initialisation), so this lock is never on a hot path. *)
let register name make select =
  Mutex.lock lock;
  let metric =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.add registry name m;
        m
  in
  Mutex.unlock lock;
  match select metric with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Obs: %S is already registered as a %s" name
           (kind_name metric))

let counter name =
  register name
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> Gauge (Atomic.make 0))
    (function Gauge g -> Some g | _ -> None)

let default_buckets =
  [| 0; 1; 2; 5; 10; 25; 50; 100; 250; 500; 1000; 2500; 5000; 10000 |]

(* Microsecond bounds of the request-stage latency histograms
   ([*.duration_us]), GC pauses and per-request GC overlap: 50us
   resolution at the fast end, 1s at the tail. *)
let latency_buckets =
  [|
    50; 100; 250; 500; 1000; 2500; 5000; 10000; 25000; 50000; 100000; 250000;
    1000000;
  |]

let histogram ?(buckets = default_buckets) name =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Obs.histogram: bucket bounds must be strictly increasing")
    buckets;
  register name
    (fun () ->
      Hist
        {
          bounds = Array.copy buckets;
          buckets = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_sum = Atomic.make 0;
        })
    (function Hist h -> Some h | _ -> None)

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let gauge_set g v = Atomic.set g v
let gauge_add g d = Atomic.fetch_and_add g d

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let gauge_max g v = atomic_max g v
let gauge_value g = Atomic.get g

let observe h v =
  (* Bounds arrays are short (tens of cells); a linear scan beats binary
     search at this size and stays branch-predictable. *)
  let n = Array.length h.bounds in
  let i = ref 0 in
  while !i < n && v > h.bounds.(!i) do
    Stdlib.incr i
  done;
  Atomic.incr h.buckets.(!i);
  Atomic.incr h.h_count;
  ignore (Atomic.fetch_and_add h.h_sum v)

(* The one clock behind every span, trace event and request stage: wall
   time, so intervals line up with GC pauses and across domains. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* The request-scope field a stage span's duration also lands in. *)
type stage = Read | Service | Write

type span = {
  sp_name : string;
  sp_cells : span_cells;
  sp_hist : histogram option;  (* [sp_name ^ ".duration_us"], microseconds *)
  sp_stage : stage option;
}

let span ?buckets name =
  let cells () =
    let z () = Atomic.make 0 in
    Span { s_count = z (); total_ns = z (); max_ns = z () }
  in
  let hist buckets = histogram ~buckets (name ^ ".duration_us") in
  {
    sp_name = name;
    sp_cells = register name cells (function Span s -> Some s | _ -> None);
    sp_hist = Option.map hist buckets;
    sp_stage = None;
  }

(* Bumped by [reset]; a [time] in flight across a reset would otherwise
   record a pre-reset start time into a zeroed cell. *)
let generation = Atomic.make 0

let aggregate s ns =
  let c = s.sp_cells in
  Atomic.incr c.s_count;
  ignore (Atomic.fetch_and_add c.total_ns ns);
  atomic_max c.max_ns ns;
  match s.sp_hist with None -> () | Some h -> observe h (ns / 1000)

let find name =
  Mutex.lock lock;
  let r = Hashtbl.find_opt registry name in
  Mutex.unlock lock;
  r

let find_counter name =
  match find name with Some (Counter c) -> Some (Atomic.get c) | _ -> None

let find_gauge name =
  match find name with Some (Gauge g) -> Some (Atomic.get g) | _ -> None

let reset () =
  Atomic.incr generation;
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ -> function
      | Counter c | Gauge c -> Atomic.set c 0
      | Hist h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0
      | Span s ->
          Atomic.set s.s_count 0;
          Atomic.set s.total_ns 0;
          Atomic.set s.max_ns 0)
    registry;
  Mutex.unlock lock

type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_buckets : (int option * int) list;
}

type span_snapshot = { s_count : int; total_ns : int; max_ns : int }

let hist_snapshot_of (h : histogram) =
  (* [observe] bumps a bucket cell before [h_count], so reading h_count
     here independently could lag the bucket total mid-ingest and yield
     an exposition where the +Inf cumulative exceeds [_count]. Read the
     cells once and derive the count as their sum — the Prometheus
     invariant (+Inf cumulative = _count) then holds by construction.
     [h_sum] is read first (it is written last) so the sum never covers
     an observation the buckets have not seen. *)
  let h_sum = Atomic.get h.h_sum in
  let cells = Array.map Atomic.get h.buckets in
  {
    h_count = Array.fold_left ( + ) 0 cells;
    h_sum;
    h_buckets =
      List.init (Array.length cells) (fun i ->
          ( (if i < Array.length h.bounds then Some h.bounds.(i) else None),
            cells.(i) ));
  }

let find_histogram name =
  match find name with Some (Hist h) -> Some (hist_snapshot_of h) | _ -> None

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
  spans : (string * span_snapshot) list;
}

let snapshot () =
  Mutex.lock lock;
  let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock lock;
  let entries = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  let section pred = List.filter_map (fun (name, m) -> Option.map (fun v -> (name, v)) (pred m)) entries in
  {
    counters = section (function Counter c -> Some (Atomic.get c) | _ -> None);
    gauges = section (function Gauge g -> Some (Atomic.get g) | _ -> None);
    histograms =
      section (function Hist h -> Some (hist_snapshot_of h) | _ -> None);
    spans =
      section (function
        | Span s ->
            Some
              {
                s_count = Atomic.get s.s_count;
                total_ns = Atomic.get s.total_ns;
                max_ns = Atomic.get s.max_ns;
              }
        | _ -> None);
  }

(* --- structured tracing ------------------------------------------------ *)

module Trace = struct
  type prune_reason = Bound | Inconsistent | Plausibility
  type evict_reason = Horizon | Capacity

  type kind =
    | Span_open of { name : string; parent : int }
    | Span_close of { name : string }
    | Bnb_node of { level : int }
    | Bnb_prune of { reason : prune_reason; gap : int }
    | Bnb_incumbent of { cost : int }
    | Bnb_zero_stop of { top : int }
    | Stn_push of { depth : int; consistent : bool }
    | Stn_pop of { depth : int }
    | Simplex_phase of { phase : int }
    | Simplex_outcome of { outcome : string }
    | Detector_admit of { live : int }
    | Detector_evict of { reason : evict_reason; count : int }
    | Detector_match of { count : int }
    | Stream_verdict of { verdict : string }
    | Mark of { label : string }

  type event = {
    ts_ns : int;
    dom : int;
    trace_id : int;
    span : int;
    kind : kind;
  }

  let prune_reason_name = function
    | Bound -> "bound"
    | Inconsistent -> "inconsistent"
    | Plausibility -> "plausibility"

  let evict_reason_name = function Horizon -> "horizon" | Capacity -> "capacity"

  let kind_name = function
    | Span_open _ -> "span.open"
    | Span_close _ -> "span.close"
    | Bnb_node _ -> "bnb.node"
    | Bnb_prune _ -> "bnb.prune"
    | Bnb_incumbent _ -> "bnb.incumbent"
    | Bnb_zero_stop _ -> "bnb.zero_stop"
    | Stn_push _ -> "stn.push"
    | Stn_pop _ -> "stn.pop"
    | Simplex_phase _ -> "simplex.phase"
    | Simplex_outcome _ -> "simplex.outcome"
    | Detector_admit _ -> "detector.admit"
    | Detector_evict _ -> "detector.evict"
    | Detector_match _ -> "detector.match"
    | Stream_verdict _ -> "stream.verdict"
    | Mark _ -> "mark"

  let kind_names =
    [
      "span.open"; "span.close"; "bnb.node"; "bnb.prune"; "bnb.incumbent";
      "bnb.zero_stop"; "stn.push"; "stn.pop"; "simplex.phase";
      "simplex.outcome"; "detector.admit"; "detector.evict"; "detector.match";
      "stream.verdict"; "mark";
    ]

  (* Shared state. The ring is claim-then-write: a writer reserves slot i
     with one fetch-and-add and fills it; a reservation past the end is a
     drop. Every slot is written by exactly one domain, so the only
     cross-domain contention is on the cursor itself. *)
  let enabled = Atomic.make false
  let sample_every = Atomic.make 1
  let ring : event option array Atomic.t = Atomic.make [||]
  let cursor = Atomic.make 0
  let dropped_n = Atomic.make 0
  let trace_seq = Atomic.make 0
  let span_seq = Atomic.make 0

  (* A per-request capture buffer. Only the domain that opened the
     request scope reaches it (shards run a batch to completion on the
     caller's domain), so it is a plain single-writer list, newest first.
     Bounded; appends past the limit are counted, never blocked on.
     Unlike the ring, a buffer works even with global tracing disabled —
     tail-based capture must not require paying for a process-wide
     ring. *)
  type buffer = {
    mutable b_items : event list;
    mutable b_count : int;
    b_limit : int;
    mutable b_dropped : int;
  }

  let default_buffer_limit = 4096

  let buffer ?(limit = default_buffer_limit) () =
    if limit < 1 then invalid_arg "Obs.Trace.buffer: limit must be >= 1";
    { b_items = []; b_count = 0; b_limit = limit; b_dropped = 0 }

  let buf_push b ev =
    if b.b_count >= b.b_limit then b.b_dropped <- b.b_dropped + 1
    else begin
      b.b_count <- b.b_count + 1;
      b.b_items <- ev :: b.b_items
    end

  let buffer_events b = List.rev b.b_items
  let buffer_dropped b = b.b_dropped

  (* Domain-local trace context: which trace this domain is inside, the
     current span, whether the trace was sampled into the ring, and the
     request buffer (if any) capturing it. *)
  type ctx = {
    mutable c_in_trace : bool; (* inside a trace or capture scope *)
    mutable c_active : bool;
    mutable c_trace : int;
    mutable c_span : int;
    mutable c_buf : buffer option;
  }

  let ctx_key =
    Domain.DLS.new_key (fun () ->
        { c_in_trace = false; c_active = false; c_trace = 0; c_span = 0;
          c_buf = None })

  let ctx () = Domain.DLS.get ctx_key

  let default_capacity = 1 lsl 18

  let reset_ctx () =
    let c = ctx () in
    c.c_in_trace <- false;
    c.c_active <- false;
    c.c_trace <- 0;
    c.c_span <- 0;
    c.c_buf <- None

  let configure ?(capacity = default_capacity) ?(sample = 1) () =
    if capacity < 1 then invalid_arg "Obs.Trace.configure: capacity must be >= 1";
    if sample < 1 then invalid_arg "Obs.Trace.configure: sample must be >= 1";
    Atomic.set enabled false;
    Atomic.set ring (Array.make capacity None);
    Atomic.set cursor 0;
    Atomic.set dropped_n 0;
    Atomic.set trace_seq 0;
    Atomic.set span_seq 0;
    Atomic.set sample_every sample;
    reset_ctx ();
    Atomic.set enabled true

  let clear () =
    let cap = Array.length (Atomic.get ring) in
    if cap > 0 then begin
      let was = Atomic.get enabled in
      configure ~capacity:cap ~sample:(Atomic.get sample_every) ();
      Atomic.set enabled was
    end

  let enable () =
    if Array.length (Atomic.get ring) = 0 then configure ()
    else Atomic.set enabled true

  let disable () = Atomic.set enabled false
  let enabled_now () = Atomic.get enabled
  let sampling () = Atomic.get sample_every
  let capacity () = Array.length (Atomic.get ring)

  (* Number of live capture scopes process-wide. Lets the fully-disabled
     [should_emit] path stay two atomic loads with no DLS access. *)
  let captures_live = Atomic.make 0

  (* The hot-path guard: with tracing off and no capture in flight, two
     atomic loads and a branch (the common case), so instrumented sites
     allocate nothing unless this is true. *)
  let should_emit () =
    if Atomic.get enabled then begin
      let c = ctx () in
      c.c_active || (match c.c_buf with Some _ -> true | None -> false)
    end
    else if Atomic.get captures_live > 0 then
      match (ctx ()).c_buf with Some _ -> true | None -> false
    else false

  let record_at ~ts_ns ~span kind =
    let c = ctx () in
    let ev =
      { ts_ns; dom = (Domain.self () :> int); trace_id = c.c_trace; span; kind }
    in
    (match c.c_buf with Some b -> buf_push b ev | None -> ());
    if c.c_active then begin
      let b = Atomic.get ring in
      let i = Atomic.fetch_and_add cursor 1 in
      if i < Array.length b then b.(i) <- Some ev else Atomic.incr dropped_n
    end

  let record ~span kind = record_at ~ts_ns:(now_ns ()) ~span kind

  let emit kind = if should_emit () then record ~span:(ctx ()).c_span kind

  (* Every span, timed or not, opens and closes through these two: the
     open makes the new span the domain's current one, the close restores
     its parent. Callers check [should_emit] first. *)
  let open_span name ~ts_ns =
    let c = ctx () in
    let parent = c.c_span in
    let id = 1 + Atomic.fetch_and_add span_seq 1 in
    record_at ~ts_ns ~span:id (Span_open { name; parent });
    c.c_span <- id;
    (id, parent)

  let close_span name ~id ~parent ~ts_ns =
    (ctx ()).c_span <- parent;
    record_at ~ts_ns ~span:id (Span_close { name })

  (* An untimed span around [f]: the root of a trace or capture scope, or
     a nested [with_trace]. *)
  let in_span name f =
    if not (should_emit ()) then f ()
    else begin
      let id, parent = open_span name ~ts_ns:(now_ns ()) in
      Fun.protect
        ~finally:(fun () -> close_span name ~id ~parent ~ts_ns:(now_ns ()))
        f
    end

  (* Run [f] at another trace position, restoring the caller's on exit
     (also when [f] raises): the one save/restore behind [with_trace] and
     [with_capture]. A position with a capture buffer counts as a live
     capture while it lasts. *)
  let at_position ~in_trace ~active ~trace ~span ~buf f =
    let c = ctx () in
    let i = c.c_in_trace and a = c.c_active and t = c.c_trace in
    let s = c.c_span and b = c.c_buf in
    let capturing = Option.is_some buf in
    if capturing then Atomic.incr captures_live;
    c.c_in_trace <- in_trace;
    c.c_active <- active;
    c.c_trace <- trace;
    c.c_span <- span;
    c.c_buf <- buf;
    Fun.protect
      ~finally:(fun () ->
        c.c_in_trace <- i;
        c.c_active <- a;
        c.c_trace <- t;
        c.c_span <- s;
        c.c_buf <- b;
        if capturing then Atomic.decr captures_live)
      f

  (* A new top-level trace id, and whether the ring samples it in. *)
  let next_trace () =
    let n = 1 + Atomic.fetch_and_add trace_seq 1 in
    (n, Atomic.get enabled && (n - 1) mod Atomic.get sample_every = 0)

  let with_trace name f =
    if not (Atomic.get enabled) then f ()
    else if (ctx ()).c_in_trace then
      (* Nested query scope: stay in the enclosing trace, just open a
         child span (suppressed with the rest if the trace was sampled
         out). *)
      in_span name f
    else
      let trace, active = next_trace () in
      at_position ~in_trace:true ~active ~trace ~span:0 ~buf:None (fun () ->
          in_span name f)

  let with_capture buf name f =
    let trace, active = next_trace () in
    at_position ~in_trace:true ~active ~trace ~span:0 ~buf:(Some buf) (fun () ->
        in_span name f)

  let emitted () = Atomic.get cursor
  let dropped () = Atomic.get dropped_n
  let recorded () = min (Atomic.get cursor) (Array.length (Atomic.get ring))

  let events () =
    let b = Atomic.get ring in
    let n = min (Atomic.get cursor) (Array.length b) in
    List.filter_map (fun i -> b.(i)) (List.init n Fun.id)
end

(* --- leveled structured logging ---------------------------------------- *)

module Log = struct
  type level = Error | Warn | Info | Debug

  let level_name = function
    | Error -> "error"
    | Warn -> "warn"
    | Info -> "info"
    | Debug -> "debug"

  let level_of_string = function
    | "error" -> Some Error
    | "warn" | "warning" -> Some Warn
    | "info" -> Some Info
    | "debug" -> Some Debug
    | _ -> None

  let rank = function Error -> 1 | Warn -> 2 | Info -> 3 | Debug -> 4

  (* 0 = logging disabled; otherwise the rank of the most verbose level
     still emitted. An atomic so worker domains see level changes and the
     disabled-path check is one atomic load. *)
  let current = Atomic.make 0

  let set_level = function
    | None -> Atomic.set current 0
    | Some l -> Atomic.set current (rank l)

  let level () =
    match Atomic.get current with
    | 1 -> Some Error
    | 2 -> Some Warn
    | 3 -> Some Info
    | 4 -> Some Debug
    | _ -> None

  let enabled l = rank l <= Atomic.get current

  type value = Str of string | Num of int | Flt of float | Bool of bool

  (* The output hook. {!Report.Sink.log} presents this channel alongside
     the report sink (it delegates here — Obs cannot depend on Report
     without a module cycle). Held in an Atomic so worker domains see
     redirections. *)
  let default_sink s =
    output_string stderr s;
    flush stderr

  let sink : (string -> unit) Atomic.t = Atomic.make default_sink
  let write s = (Atomic.get sink) s
  let set_sink f = Atomic.set sink f
  let reset_sink () = Atomic.set sink default_sink

  let lines_c = counter "log.lines"

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 32 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let add_value b = function
    | Str s ->
        Buffer.add_char b '"';
        add_escaped b s;
        Buffer.add_char b '"'
    | Num n -> Buffer.add_string b (string_of_int n)
    | Flt f ->
        if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.6g" f)
        else Buffer.add_string b "null"
    | Bool bo -> Buffer.add_string b (if bo then "true" else "false")

  let emit lvl event fields =
    if enabled lvl then begin
      incr lines_c;
      let b = Buffer.create 128 in
      Buffer.add_string b "{\"ts_ms\":";
      Buffer.add_string b
        (string_of_int (int_of_float (Unix.gettimeofday () *. 1e3)));
      Buffer.add_string b ",\"level\":\"";
      Buffer.add_string b (level_name lvl);
      Buffer.add_string b "\",\"event\":\"";
      add_escaped b event;
      Buffer.add_char b '"';
      List.iter
        (fun (k, v) ->
          Buffer.add_string b ",\"";
          add_escaped b k;
          Buffer.add_string b "\":";
          add_value b v)
        fields;
      Buffer.add_string b "}\n";
      write (Buffer.contents b)
    end

  (* The event-type catalog the engine itself emits — like
     {!Trace.kind_names}, every member must be documented in
     docs/OBSERVABILITY.md (enforced by @metrics-lint and whynot-check's
     metrics-doc rule). *)
  let event_names =
    [
      "serve.start"; "serve.stop"; "serve.request"; "serve.error";
      "serve.access"; "ingest.error"; "detector.match"; "detector.evict";
      "detector.pressure";
    ]
end

(* --- runtime-events GC pause profiling ---------------------------------- *)

module Rt_events = struct
  (* Consumes the OCaml 5 [Runtime_events] ring in self-monitoring mode:
     a poller domain decodes GC phase begin/end pairs into per-domain
     pause histograms and a bounded per-domain ring of recent pause
     intervals, so the request path can answer "was it the GC?" for
     every slow request.

     Locking: all mutable decoder state lives under the single [rt_lock]
     (class obs.rt_lock, pinned in the global lock order); every metric
     handle is obtained at module initialisation, so nothing running
     under [rt_lock] ever touches the registry [lock]. Cursor access is
     serialized by a lock-free CAS flag rather than a second mutex —
     [read_poll] runs outside every lock, and only the per-event decode
     callbacks it invokes take [rt_lock]. *)

  let pause_h =
    histogram ~buckets:latency_buckets "runtime.gc.pause.duration_us"

  let minor_c = counter "runtime.gc.pause.minor"
  let major_c = counter "runtime.gc.pause.major"
  let compact_c = counter "runtime.gc.pause.compact"
  let dropped_c = counter "runtime.events.dropped"
  let lost_c = counter "runtime.events.lost"

  (* Per-domain max-pause gauges are registered up front for a fixed
     domain range: gauge cardinality must not scale with whatever ring
     indices the runtime hands out. Pauses on higher ring domains still
     feed the shared histogram, the split counters and the /debug/gc
     summaries. *)
  let max_gauge_domains = 8

  let max_pause_g =
    Array.init max_gauge_domains (fun d ->
        gauge (Printf.sprintf "runtime.dom.%d.gc.max_pause_us" d))

  type pause_class = Minor | Major | Compact

  let pause_class_name = function
    | Minor -> "minor"
    | Major -> "major"
    | Compact -> "compact"

  (* One recorded stop-the-world interval. Exposed timestamps are
     wall-clock nanoseconds; the ring stores the runtime's monotonic
     clock and converts at read time through [offset_ns]. *)
  type pause = { p_class : pause_class; p_start_ns : int; p_end_ns : int }

  type dom_state = {
    (* open classified phases, innermost first: (class, mono-ns begin) *)
    mutable ds_stack : (pause_class * int) list;
    ds_ring : pause option array;
    (* monotone write cursor; slot = cursor mod capacity, so
       [cursor - capacity] (when positive) is exactly the evicted count *)
    mutable ds_cursor : int;
    mutable ds_minor : int;
    mutable ds_major : int;
    mutable ds_compact : int;
    mutable ds_max_us : int;
  }

  type state = {
    doms : (int, dom_state) Hashtbl.t;
    (* wall minus mono, ns; set once per [start] by the calibration pause *)
    mutable offset_ns : int option;
    (* wall-clock anchor awaiting its first classified begin event *)
    mutable calib_wall : int option;
    mutable ring_cap : int;
  }

  let rt_lock = Mutex.create ()
  let default_ring_capacity = 256

  let st =
    {
      doms = Hashtbl.create 8;
      offset_ns = None;
      calib_wall = None;
      ring_cap = default_ring_capacity;
    }

  (* Mirrors [st.offset_ns <> None] so the request path can skip the
     pause query (and its lock) entirely until a pause source exists. *)
  let calibrated = Atomic.make false

  type lifecycle = {
    mutable lc_poller : unit Domain.t option;
    mutable lc_cursor : Runtime_events.cursor option;
    mutable lc_rt_started : bool;
  }

  let lc = { lc_poller = None; lc_cursor = None; lc_rt_started = false }
  let running_a = Atomic.make false
  let stop_flag = Atomic.make false

  (* serializes cursor access between the poller, [poll_now] and [stop] *)
  let polling = Atomic.make false
  let running () = Atomic.get running_a
  let active () = Atomic.get running_a || Atomic.get calibrated

  (* The phases that begin/end a stop-the-world pause as observed by the
     mutator. Sub-phases (mark/sweep slices, root scans, ...) nest inside
     these and are ignored — one pause, one interval. *)
  let classify = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_EXPLICIT_GC_MINOR ->
        Some Minor
    | Runtime_events.EV_MAJOR | Runtime_events.EV_MAJOR_SLICE
    | Runtime_events.EV_EXPLICIT_GC_MAJOR
    | Runtime_events.EV_EXPLICIT_GC_FULL_MAJOR
    | Runtime_events.EV_EXPLICIT_GC_MAJOR_SLICE ->
        Some Major
    | Runtime_events.EV_EXPLICIT_GC_COMPACT -> Some Compact
    | _ -> None

  let new_dom_state () =
    {
      ds_stack = [];
      ds_ring = Array.make st.ring_cap None;
      ds_cursor = 0;
      ds_minor = 0;
      ds_major = 0;
      ds_compact = 0;
      ds_max_us = 0;
    }

  (* Record one completed pause. Must run with [rt_lock] held (callers
     below); the metric cells themselves are atomics. *)
  let record_pause_locked ds ~dom ~cls ~t0 ~t1 =
    let dur_ns = t1 - t0 in
    if dur_ns >= 0 then begin
      let us = dur_ns / 1000 in
      observe pause_h us;
      (match cls with
      | Minor ->
          ds.ds_minor <- ds.ds_minor + 1;
          incr minor_c
      | Major ->
          ds.ds_major <- ds.ds_major + 1;
          incr major_c
      | Compact ->
          ds.ds_compact <- ds.ds_compact + 1;
          incr compact_c);
      if us > ds.ds_max_us then ds.ds_max_us <- us;
      if dom >= 0 && dom < max_gauge_domains then
        gauge_max max_pause_g.(dom) us;
      let cap = Array.length ds.ds_ring in
      if ds.ds_cursor >= cap then incr dropped_c;
      ds.ds_ring.(ds.ds_cursor mod cap) <-
        Some { p_class = cls; p_start_ns = t0; p_end_ns = t1 };
      ds.ds_cursor <- ds.ds_cursor + 1
    end

  let on_begin ring_dom ts phase =
    match classify phase with
    | None -> ()
    | Some cls ->
        let mono = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
        Mutex.lock rt_lock;
        (match st.calib_wall with
        | Some wall ->
            (* first classified begin after [start] planted the anchor:
               it is (or immediately follows) the explicit minor
               collection just forced, so its monotonic timestamp
               corresponds to the anchored wall clock *)
            st.offset_ns <- Some (wall - mono);
            Atomic.set calibrated true;
            st.calib_wall <- None
        | None -> ());
        let ds =
          match Hashtbl.find_opt st.doms ring_dom with
          | Some ds -> ds
          | None ->
              let ds = new_dom_state () in
              Hashtbl.add st.doms ring_dom ds;
              ds
        in
        ds.ds_stack <- (cls, mono) :: ds.ds_stack;
        Mutex.unlock rt_lock

  let on_end ring_dom ts phase =
    match classify phase with
    | None -> ()
    | Some _ ->
        let mono = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
        Mutex.lock rt_lock;
        (match Hashtbl.find_opt st.doms ring_dom with
        | None -> ()
        | Some ds -> (
            (* pop the innermost open phase; a pause interval is recorded
               only when the stack empties, classed by the outermost
               phase — nested phases (a minor collection inside a major
               slice) count as one pause, never two *)
            match ds.ds_stack with
            | [] -> () (* end without a begin: the cursor opened mid-phase *)
            | [ (outer_cls, t0) ] ->
                ds.ds_stack <- [];
                record_pause_locked ds ~dom:ring_dom ~cls:outer_cls ~t0
                  ~t1:mono
            | _ :: rest -> ds.ds_stack <- rest));
        Mutex.unlock rt_lock

  let on_lost _ring_dom n = add lost_c n

  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin:on_begin
      ~runtime_end:on_end ~lost_events:on_lost ()

  (* Drain the runtime ring through the decode callbacks. Returns the
     number of events consumed; 0 when another thread holds the polling
     slot or no cursor is open. Runs outside every lock — only the
     per-event callbacks take [rt_lock]. *)
  let poll_now () =
    if Atomic.compare_and_set polling false true then
      Fun.protect
        ~finally:(fun () -> Atomic.set polling false)
        (fun () ->
          match lc.lc_cursor with
          | None -> 0
          | Some cursor -> Runtime_events.read_poll cursor callbacks None)
    else 0

  let default_interval_s = 0.002

  let rec poll_loop interval_s =
    if not (Atomic.get stop_flag) then begin
      ignore (poll_now ());
      Unix.sleepf interval_s;
      poll_loop interval_s
    end

  let start ?(interval_s = default_interval_s)
      ?(ring_capacity = default_ring_capacity) () =
    if interval_s <= 0.0 then
      invalid_arg "Obs.Rt_events.start: interval_s must be > 0";
    if ring_capacity < 1 then
      invalid_arg "Obs.Rt_events.start: ring_capacity must be >= 1";
    if not (Atomic.get running_a) then begin
      if lc.lc_rt_started then Runtime_events.resume ()
      else begin
        Runtime_events.start ();
        lc.lc_rt_started <- true
      end;
      Mutex.lock rt_lock;
      Hashtbl.reset st.doms;
      st.offset_ns <- None;
      st.calib_wall <- None;
      st.ring_cap <- ring_capacity;
      Mutex.unlock rt_lock;
      Atomic.set calibrated false;
      lc.lc_cursor <- Some (Runtime_events.create_cursor None);
      Atomic.set stop_flag false;
      (* drain whatever predates this start so the calibration anchor
         below pairs with a fresh pause, not a stale ring entry *)
      ignore (poll_now ());
      let w0 = now_ns () in
      Gc.minor ();
      let w1 = now_ns () in
      Mutex.lock rt_lock;
      (* discard drain-decoded state (its wall anchor is unknown), plant
         the anchor, and decode the forced minor collection: its begin
         event calibrates the monotonic clock against the wall clock *)
      Hashtbl.reset st.doms;
      st.offset_ns <- None;
      st.calib_wall <- Some (w0 + ((w1 - w0) / 2));
      Mutex.unlock rt_lock;
      ignore (poll_now ());
      lc.lc_poller <- Some (Domain.spawn (fun () -> poll_loop interval_s));
      Atomic.set running_a true
    end

  let stop () =
    if Atomic.get running_a then begin
      Atomic.set stop_flag true;
      (match lc.lc_poller with
      | Some d ->
          Domain.join d;
          lc.lc_poller <- None
      | None -> ());
      (* final drain, then pause the runtime stream and release the
         cursor — holding the polling slot so no concurrent [poll_now]
         can touch the freed cursor *)
      ignore (poll_now ());
      Runtime_events.pause ();
      let rec acquire () =
        if not (Atomic.compare_and_set polling false true) then acquire ()
      in
      acquire ();
      (match lc.lc_cursor with
      | Some cursor ->
          lc.lc_cursor <- None;
          Runtime_events.free_cursor cursor
      | None -> ());
      Atomic.set polling false;
      Atomic.set running_a false
    end

  (* mono -> wall conversion for one ring entry; unknown until calibrated *)
  let wall_of_locked p =
    match st.offset_ns with
    | None -> None
    | Some off ->
        Some
          {
            p_class = p.p_class;
            p_start_ns = p.p_start_ns + off;
            p_end_ns = p.p_end_ns + off;
          }

  (* ring entries oldest first, converted to wall clock *)
  let ring_entries_locked ds =
    let cap = Array.length ds.ds_ring in
    let n = min ds.ds_cursor cap in
    let first = ds.ds_cursor - n in
    List.filter_map
      (fun k ->
        match ds.ds_ring.((first + k) mod cap) with
        | Some p -> wall_of_locked p
        | None -> None)
      (List.init n Fun.id)

  type dom_summary = {
    d_dom : int;
    d_pauses : int;
    d_minor : int;
    d_major : int;
    d_compact : int;
    d_max_pause_us : int;
    d_dropped : int;
    d_recent : pause list; (* oldest first, wall-clock ns *)
  }

  let summaries () =
    Mutex.lock rt_lock;
    let out =
      Hashtbl.fold
        (fun dom ds acc ->
          {
            d_dom = dom;
            d_pauses = ds.ds_cursor;
            d_minor = ds.ds_minor;
            d_major = ds.ds_major;
            d_compact = ds.ds_compact;
            d_max_pause_us = ds.ds_max_us;
            d_dropped = max 0 (ds.ds_cursor - Array.length ds.ds_ring);
            d_recent = ring_entries_locked ds;
          }
          :: acc)
        st.doms []
    in
    Mutex.unlock rt_lock;
    List.sort (fun a b -> Int.compare a.d_dom b.d_dom) out

  (* All recorded pauses (any domain) intersecting [t0_ns, t1_ns],
     wall-clock, clipped to the window, sorted and merged: overlapping
     per-domain pauses collapse, so the result is a disjoint interval
     list — summing overlaps against it never double-counts concurrent
     multi-domain collections. *)
  let pauses_between ~t0_ns ~t1_ns () =
    Mutex.lock rt_lock;
    let raw =
      Hashtbl.fold
        (fun _ ds acc -> List.rev_append (ring_entries_locked ds) acc)
        st.doms []
    in
    Mutex.unlock rt_lock;
    let clipped =
      List.filter_map
        (fun p ->
          let s = max p.p_start_ns t0_ns and e = min p.p_end_ns t1_ns in
          if s < e then Some (s, e) else None)
        raw
      |> List.sort (fun (sa, _) (sb, _) -> Int.compare sa sb)
    in
    let rec merge = function
      | (s0, e0) :: (s1, e1) :: rest when s1 <= e0 ->
          merge ((s0, max e0 e1) :: rest)
      | iv :: rest -> iv :: merge rest
      | [] -> []
    in
    merge clipped

  (* Microseconds of [intervals] (disjoint, as returned by
     [pauses_between]) falling inside [t0_ns, t1_ns]. *)
  let overlap_us intervals ~t0_ns ~t1_ns =
    List.fold_left
      (fun acc (s, e) ->
        let s = max s t0_ns and e = min e t1_ns in
        if s < e then acc + (e - s) else acc)
      0 intervals
    / 1000

  (* Test hook: push a synthetic pause through the real recording path
     (ring eviction, split counters, histogram, gauges). Wall-clock
     nanosecond interval; pins the mono->wall offset to 0 when no real
     calibration has happened, so injected and queried times agree. *)
  let inject_for_test ~dom ~cls ~t0_ns ~t1_ns =
    Mutex.lock rt_lock;
    let off =
      match st.offset_ns with
      | Some off -> off
      | None ->
          st.offset_ns <- Some 0;
          Atomic.set calibrated true;
          0
    in
    let ds =
      match Hashtbl.find_opt st.doms dom with
      | Some ds -> ds
      | None ->
          let ds = new_dom_state () in
          Hashtbl.add st.doms dom ds;
          ds
    in
    record_pause_locked ds ~dom ~cls ~t0:(t0_ns - off) ~t1:(t1_ns - off);
    Mutex.unlock rt_lock

  (* Test hook: forget decoded pauses and the calibration (the metric
     cells are cumulative and stay). *)
  let reset_for_test ?ring_capacity () =
    Mutex.lock rt_lock;
    Hashtbl.reset st.doms;
    st.offset_ns <- None;
    st.calib_wall <- None;
    (match ring_capacity with
    | Some c when c >= 1 -> st.ring_cap <- c
    | Some _ | None -> ());
    Mutex.unlock rt_lock;
    Atomic.set calibrated false
end

(* --- per-request scopes: ids, latency decomposition, tail capture ------ *)

module Request = struct
  (* Request ids must be unique across a run and cheap to mint: a boot
     token (pid + start-of-process milliseconds) plus a dense per-process
     sequence number. The token keeps ids from colliding across restarts
     when client logs are joined against server traces. *)
  let boot_token =
    Printf.sprintf "%x-%x" (Unix.getpid ())
      (int_of_float (Unix.gettimeofday () *. 1e3) land 0xffffffff)

  let req_seq = Atomic.make 0

  (* Tail capture is off by default so embedding the library costs
     nothing; `whynot serve` turns it on. *)
  let capture_on = Atomic.make false
  let threshold_us_a = Atomic.make 100_000
  let default_capacity = 64

  type info = {
    r_id : string;
    r_meth : string;
    r_path : string;
    r_status : int;
    r_bytes_in : int;
    r_bytes_out : int;
    r_shed : bool;
    r_keep_alive : bool;
    r_start_ms : int;
    r_read_us : int;
    r_service_us : int;
    r_write_us : int;
    r_total_us : int;
    (* shard indices this request's ingest lines were routed to,
       ascending *)
    r_shards : int list;
    (* merged GC pause intervals (wall-clock ns) intersecting the
       request window, captured at completion so span overlaps stay
       computable (and deterministic) after retention *)
    r_gc_pauses : (int * int) list;
    r_gc_overlap_us : int;
    r_gc_read_us : int;
    r_gc_service_us : int;
    r_gc_write_us : int;
    r_events : Trace.event list;
    r_events_dropped : int;
  }

  (* Retained slow/shed/error requests: a small Mutex-guarded ring —
     retention happens at most once per request, never on a hot path. *)
  let ring_lock = Mutex.create ()

  let retained_ring : info option array ref =
    ref (Array.make default_capacity None)

  let retained_cursor = ref 0
  let retained_c = counter "serve.slow.retained"

  (* Level the per-request access-log line is emitted at; [None]
     silences access logging independently of the global log level. *)
  let access_level_a : Log.level option Atomic.t = Atomic.make (Some Log.Info)

  let set_access_level l = Atomic.set access_level_a l
  let access_level () = Atomic.get access_level_a

  let configure ?threshold_us ?capacity () =
    (match threshold_us with
    | Some t when t < 0 ->
        invalid_arg "Obs.Request.configure: threshold_us must be >= 0"
    | Some t -> Atomic.set threshold_us_a t
    | None -> ());
    match capacity with
    | Some c when c <= 0 -> Atomic.set capture_on false
    | Some c ->
        Mutex.lock ring_lock;
        retained_ring := Array.make c None;
        retained_cursor := 0;
        Mutex.unlock ring_lock;
        Atomic.set capture_on true
    | None -> Atomic.set capture_on true

  let disable () = Atomic.set capture_on false
  let threshold_us () = Atomic.get threshold_us_a

  let capacity () =
    Mutex.lock ring_lock;
    let n = Array.length !retained_ring in
    Mutex.unlock ring_lock;
    n

  type scope = {
    sc_id : string;
    sc_start_ns : int;
    sc_buf : Trace.buffer option;
    mutable sc_meth : string;
    mutable sc_path : string;
    mutable sc_status : int;
    mutable sc_bytes_in : int;
    mutable sc_bytes_out : int;
    mutable sc_keep_alive : bool;
    mutable sc_read_ns : int;
    mutable sc_service_ns : int;
    mutable sc_write_ns : int;
    mutable sc_shards : int list;
    mutable sc_abandoned : bool;
  }

  let id sc = sc.sc_id
  let set_route sc ~meth ~path =
    sc.sc_meth <- meth;
    sc.sc_path <- path
  let set_status sc st = sc.sc_status <- st
  let set_bytes_in sc n = sc.sc_bytes_in <- n
  let set_bytes_out sc n = sc.sc_bytes_out <- n
  let set_keep_alive sc b = sc.sc_keep_alive <- b
  let abandon sc = sc.sc_abandoned <- true

  let stage_span stage name =
    { (span ~buckets:latency_buckets name) with sp_stage = Some stage }

  let read = stage_span Read "serve.request.read"
  let service = stage_span Service "serve.request.service"
  let write = stage_span Write "serve.request.write"

  (* The accepting domain's current scope, so verdict renderers deep
     inside [Service] can stamp the request id — and ingest routing can
     note shard indices — without threading the scope through every
     call. Worker domains see [None] — they report through the scope's
     capture buffer instead. *)
  let scope_key : scope option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let current_id () =
    match Domain.DLS.get scope_key with
    | Some sc -> Some sc.sc_id
    | None -> None

  (* A stage span closed on the domain running the turn: its duration is
     that stage of the current scope. *)
  let set_stage stage ns =
    match Domain.DLS.get scope_key with
    | None -> ()
    | Some sc -> (
        match stage with
        | Read -> sc.sc_read_ns <- ns
        | Service -> sc.sc_service_ns <- ns
        | Write -> sc.sc_write_ns <- ns)

  (* Shard visibility: [Shard.submit] notes each shard a batch routes
     to. Single-writer — only the domain running the turn (the scope
     owner) calls this. *)
  let note_shard k =
    match Domain.DLS.get scope_key with
    | None -> ()
    | Some sc ->
        if not (List.exists (fun s -> Int.equal s k) sc.sc_shards) then
          sc.sc_shards <- k :: sc.sc_shards

  let retain info =
    Mutex.lock ring_lock;
    let a = !retained_ring in
    let n = Array.length a in
    if n > 0 then begin
      a.(!retained_cursor) <- Some info;
      retained_cursor := (!retained_cursor + 1) mod n
    end;
    Mutex.unlock ring_lock;
    incr retained_c

  let retained () =
    Mutex.lock ring_lock;
    let a = !retained_ring in
    let n = Array.length a in
    let cur = !retained_cursor in
    let out = ref [] in
    for k = 0 to n - 1 do
      (* oldest-to-newest scan, consed so the result is newest first *)
      match a.((cur + k) mod n) with
      | Some i -> out := i :: !out
      | None -> ()
    done;
    Mutex.unlock ring_lock;
    !out

  let clear_retained () =
    Mutex.lock ring_lock;
    Array.fill !retained_ring 0 (Array.length !retained_ring) None;
    retained_cursor := 0;
    Mutex.unlock ring_lock

  let us_of_ns ns = ns / 1000

  (* GC overlap histogram on the shared microsecond latency buckets; the
     handle is registered at module initialisation like every other. *)
  let gc_overlap_h =
    histogram ~buckets:latency_buckets "serve.request.gc_overlap_us"

  let info_of ~events sc =
    (* Reconstruct the request's stage intervals on the wall clock:
       [sc_start_ns] is taken right as the connection turn begins, and
       read/service/write follow in order. Overlapping the recorded GC
       pauses against these intervals attributes each pause to the stage
       it actually stalled. *)
    let w0 = sc.sc_start_ns in
    let read_end = w0 + sc.sc_read_ns in
    let service_end = read_end + sc.sc_service_ns in
    let w1 = service_end + sc.sc_write_ns in
    let pauses =
      if Rt_events.active () then
        Rt_events.pauses_between ~t0_ns:w0 ~t1_ns:w1 ()
      else []
    in
    let ov t0 t1 = Rt_events.overlap_us pauses ~t0_ns:t0 ~t1_ns:t1 in
    {
      r_id = sc.sc_id;
      r_meth = sc.sc_meth;
      r_path = sc.sc_path;
      r_status = sc.sc_status;
      r_bytes_in = sc.sc_bytes_in;
      r_bytes_out = sc.sc_bytes_out;
      r_shed = sc.sc_status = 429;
      r_keep_alive = sc.sc_keep_alive;
      r_start_ms = sc.sc_start_ns / 1_000_000;
      r_read_us = us_of_ns sc.sc_read_ns;
      r_service_us = us_of_ns sc.sc_service_ns;
      r_write_us = us_of_ns sc.sc_write_ns;
      r_total_us = (now_ns () - sc.sc_start_ns) / 1000;
      r_shards = List.sort Int.compare sc.sc_shards;
      r_gc_pauses = pauses;
      r_gc_overlap_us = ov w0 w1;
      r_gc_read_us = ov w0 read_end;
      r_gc_service_us = ov read_end service_end;
      r_gc_write_us = ov service_end w1;
      (* the events are reversed only for a request that is kept *)
      r_events =
        (match sc.sc_buf with
        | Some b when events -> Trace.buffer_events b
        | Some _ | None -> []);
      r_events_dropped =
        (match sc.sc_buf with Some b -> Trace.buffer_dropped b | None -> 0);
    }

  (* The access line, the GC-overlap histogram and tail retention each
     read the request's info; it is built only when one of them will. *)
  let finalize sc =
    if not sc.sc_abandoned then begin
      let access =
        match Atomic.get access_level_a with
        | Some lvl when Log.enabled lvl -> Some lvl
        | Some _ | None -> None
      in
      let gc = Rt_events.running () in
      (* Tail-retention trigger: the time the server spent on the
         request (service + write), not wall time — a keep-alive
         connection parked in its read between requests is idle, not
         slow. Shed and error responses are always retained. *)
      let keep =
        Atomic.get capture_on
        && (sc.sc_status >= 400
           || us_of_ns (sc.sc_service_ns + sc.sc_write_ns)
              >= Atomic.get threshold_us_a)
      in
      if Option.is_some access || gc || keep then begin
        let info = info_of ~events:keep sc in
        (match access with
        | Some lvl ->
            Log.emit lvl "serve.access"
              [
                ("id", Log.Str info.r_id);
                ("method", Log.Str info.r_meth);
                ("path", Log.Str info.r_path);
                ("status", Log.Num info.r_status);
                ("bytes_in", Log.Num info.r_bytes_in);
                ("bytes_out", Log.Num info.r_bytes_out);
                ("read_us", Log.Num info.r_read_us);
                ("service_us", Log.Num info.r_service_us);
                ("write_us", Log.Num info.r_write_us);
                ("total_us", Log.Num info.r_total_us);
                ( "shards",
                  Log.Str
                    (String.concat ","
                       (List.map string_of_int info.r_shards)) );
                ("gc_overlap_us", Log.Num info.r_gc_overlap_us);
                ("gc_read_us", Log.Num info.r_gc_read_us);
                ("gc_service_us", Log.Num info.r_gc_service_us);
                ("gc_write_us", Log.Num info.r_gc_write_us);
                ("keep_alive", Log.Bool info.r_keep_alive);
                ("shed", Log.Bool info.r_shed);
              ]
        | None -> ());
        if gc then observe gc_overlap_h info.r_gc_overlap_us;
        if keep then retain info
      end
    end

  let with_scope f =
    let n = 1 + Atomic.fetch_and_add req_seq 1 in
    let rid = Printf.sprintf "%s-%d" boot_token n in
    let buf =
      if Atomic.get capture_on then Some (Trace.buffer ()) else None
    in
    let sc =
      {
        sc_id = rid;
        sc_start_ns = now_ns ();
        sc_buf = buf;
        sc_meth = "-";
        sc_path = "-";
        sc_status = 0;
        sc_bytes_in = 0;
        sc_bytes_out = 0;
        sc_keep_alive = false;
        sc_read_ns = 0;
        sc_service_ns = 0;
        sc_write_ns = 0;
        sc_shards = [];
        sc_abandoned = false;
      }
    in
    Domain.DLS.set scope_key (Some sc);
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set scope_key None;
        (* after the capture scope closed, so the root span's close
           event is already in the buffer *)
        finalize sc)
      (fun () ->
        match buf with
        | Some b -> Trace.with_capture b "serve.request" (fun () -> f sc)
        | None -> f sc)
end

(* --- timing a stage: one clock, three sinks ---------------------------- *)

(* Close a span that opened at [t0] (as trace span [id], child of
   [parent], when [id > 0]) and feed its duration to the aggregate cells
   and, for a stage span, the current request scope. *)
let finish s ~g0 ~id ~parent ~t0 ~t1 =
  if id > 0 then Trace.close_span s.sp_name ~id ~parent ~ts_ns:t1;
  let ns = t1 - t0 in
  if Atomic.get generation = g0 then aggregate s ns;
  match s.sp_stage with None -> () | Some st -> Request.set_stage st ns

let time s f =
  let g0 = Atomic.get generation in
  let t0 = now_ns () in
  let id, parent =
    if Trace.should_emit () then Trace.open_span s.sp_name ~ts_ns:t0
    else (0, 0)
  in
  match f () with
  | v ->
      finish s ~g0 ~id ~parent ~t0 ~t1:(now_ns ());
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish s ~g0 ~id ~parent ~t0 ~t1:(now_ns ());
      Printexc.raise_with_backtrace e bt

(* --- runtime / GC gauges ------------------------------------------------ *)

module Runtime = struct
  let minor_collections_g = gauge "runtime.gc.minor_collections"
  let major_collections_g = gauge "runtime.gc.major_collections"
  let compactions_g = gauge "runtime.gc.compactions"
  let heap_words_g = gauge "runtime.gc.heap_words"
  let top_heap_words_g = gauge "runtime.gc.top_heap_words"
  let minor_words_g = gauge "runtime.gc.minor_words"
  let promoted_words_g = gauge "runtime.gc.promoted_words"
  let major_words_g = gauge "runtime.gc.major_words"
  let uptime_ms_g = gauge "runtime.uptime_ms"
  let trace_emitted_g = gauge "trace.emitted"
  let trace_recorded_g = gauge "trace.recorded"
  let trace_dropped_g = gauge "trace.dropped"
  let trace_capacity_g = gauge "trace.capacity"

  let started = Unix.gettimeofday ()

  (* [Gc.quick_stat] reports cumulative word counts as floats; on a
     long-lived allocation-heavy process they eventually exceed
     [max_int], where a bare [int_of_float] is undefined (and wraps
     negative in practice). Saturate at the int range instead. *)
  let saturating_int_of_float f =
    if Float.is_nan f then 0
    else if f >= float_of_int max_int then max_int
    else if f <= float_of_int min_int then min_int
    else int_of_float f

  let refresh () =
    let s = Gc.quick_stat () in
    gauge_set minor_collections_g s.Gc.minor_collections;
    gauge_set major_collections_g s.Gc.major_collections;
    gauge_set compactions_g s.Gc.compactions;
    gauge_set heap_words_g s.Gc.heap_words;
    gauge_set top_heap_words_g s.Gc.top_heap_words;
    gauge_set minor_words_g (saturating_int_of_float s.Gc.minor_words);
    gauge_set promoted_words_g (saturating_int_of_float s.Gc.promoted_words);
    gauge_set major_words_g (saturating_int_of_float s.Gc.major_words);
    gauge_set uptime_ms_g
      (int_of_float ((Unix.gettimeofday () -. started) *. 1e3));
    gauge_set trace_emitted_g (Trace.emitted ());
    gauge_set trace_recorded_g (Trace.recorded ());
    gauge_set trace_dropped_g (Trace.dropped ());
    gauge_set trace_capacity_g (Trace.capacity ())
end
