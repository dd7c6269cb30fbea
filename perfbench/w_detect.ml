(* The detect workload: one long seeded interleaved stream, generated
   before timing, fed in-process through a compiled [Cep.Detector] with
   default settings. *)

module Prng = Whynot.Numeric.Prng
module Detector = Whynot.Cep.Detector
module Plan = Whynot.Cep.Plan

let query = "SEQ(E1, AND(E2, E3) ATLEAST 5, E4) WITHIN 60"
let relevant = [| "E1"; "E2"; "E3"; "E4" |]
let irrelevant = [| "X1"; "X2"; "X3"; "X4"; "X5"; "X6"; "X7"; "X8" |]

let patterns () =
  match Whynot.Pattern.Parse.pattern_set query with
  | Ok ps -> ps
  | Error e -> failwith e

(* A fixed cycle of blocks: calm (mostly irrelevant types, sparse
   timestamps: horizon eviction), normal, and a short burst (only relevant
   types, dense timestamps: live partials climb to [max_partials] and the
   capacity path runs). The seed draws every event and gap; the block
   cycle is the same for every seed, so runs with different seeds carry
   the same mix of work. *)
let cycle = [| (2000, 3, 8); (2500, 25, 3); (1500, 3, 8); (2000, 25, 3) |]
let burst = (120, 100, 1)
let burst_every = 20

let stream ~seed ~n =
  let prng = Prng.create ((seed * 131) + 3) in
  let out = Array.make n { Detector.event = ""; timestamp = 0; tag = "" } in
  let t = ref 0 and i = ref 0 and block = ref 0 in
  while !i < n do
    (* block 1 is a burst, so a short prefix already holds capacity
       evictions for the output check *)
    let len, p_relevant, max_gap =
      if !block mod burst_every = 1 then burst else cycle.(!block mod Array.length cycle)
    in
    incr block;
    for _ = 1 to len do
      if !i < n then begin
        let event =
          if Prng.int prng 100 < p_relevant then Prng.choose prng relevant
          else Prng.choose prng irrelevant
        in
        t := !t + Prng.int prng (max_gap + 1);
        out.(!i) <- { Detector.event; timestamp = !t; tag = "t" ^ string_of_int !i };
        incr i
      end
    done
  done;
  out

(* Matches as (count, in-order digest of their tags). *)
type tally = { mutable count : int; digest : Buffer.t }

let tally () = { count = 0; digest = Buffer.create 4096 }

let note tl (ms : Detector.match_ list) =
  List.iter
    (fun (m : Detector.match_) ->
      tl.count <- tl.count + 1;
      List.iter
        (fun (e, tag) ->
          Buffer.add_string tl.digest e;
          Buffer.add_char tl.digest '=';
          Buffer.add_string tl.digest tag;
          Buffer.add_char tl.digest ' ')
        m.tags;
      Buffer.add_char tl.digest '\n')
    ms

let digest tl = Digest.to_hex (Digest.string (Buffer.contents tl.digest))

(* Output check: the compiled engine against the [Naive] reference on a
   prefix, with a partial bound small enough that the prefix's bursts
   evict by capacity (the naive engine pays a full consistency check per
   live partial, so the default bound of 4096 would take minutes). *)
let check_prefix ps insts ~len ~max_partials =
  let run engine =
    let d = Detector.create ~engine ~max_partials ps in
    let tl = tally () in
    for i = 0 to len - 1 do
      note tl (Detector.feed d insts.(i))
    done;
    (tl.count, digest tl, Detector.dropped_capacity d)
  in
  let cc, cd, evicted = run Detector.Compiled in
  let nc, nd, _ = run Detector.Naive in
  (cc = nc && String.equal cd nd && evicted > 0, cc, evicted)

(* Four block cycles of 20 blocks (37620 events each), so every pass
   holds the same four bursts. *)
let stream_len = 4 * 37620

(* Untraced: [Detector.feed] on a fresh detector from one template, one
   whole pass over the stream after another, until at least [seconds]
   have run. Whole passes keep the work of a run the same from run to
   run. *)
let measure tpl insts ~seconds =
  let h = Stats.hist () in
  let fed = ref 0 and matches = ref 0 and errors = ref 0 in
  let passes = ref [] and pass_cpu = ref [] in
  let t0 = Stats.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let n = Array.length insts in
  while Stats.now_ns () < deadline do
    let d = Detector.of_template tpl in
    let p0 = Stats.now_ns () and c0 = Procfs.self_cpu_s () and i = ref 0 in
    while !i < n do
      let a = Stats.now_ns () in
      (match Detector.feed d insts.(!i) with
      | ms -> matches := !matches + List.length ms
      | exception Invalid_argument _ -> incr errors);
      Stats.record h (Stats.now_ns () - a);
      incr i
    done;
    fed := !fed + n;
    passes := float_of_int (Stats.now_ns () - p0) /. float_of_int n :: !passes;
    pass_cpu := (Procfs.self_cpu_s () -. c0) *. 1e6 /. float_of_int n :: !pass_cpu
  done;
  let wall = float_of_int (Stats.now_ns () - t0) /. 1e9 in
  (h, !fed, !matches, !errors, wall, Array.of_list !pass_cpu, Array.of_list !passes)

(* Traced: the same stream through the detector's public parts —
   [Plan.create_store] and [Plan.step], then [Matcher.matches_set] on
   every candidate, building the match list as [Detector.feed] does. With
   [spans], each event is a span with a [plan.step] child and a
   [matcher.confirm] child per candidate. [sink] receives each event's
   matches. *)
let span_names = [| "detector.event"; "plan.step"; "matcher.confirm" |]

type rebuilt = {
  mutable candidates : int;
  mutable confirmed : int;
  mutable live_sum : int;
  mutable live_peak : int;
  mutable horizon_evicted : int;
  mutable capacity_evicted : int;
  mutable wall_ns : int;
}

let rebuild ?(sink = ignore) ?spans ps ~horizon plan insts =
  let r =
    { candidates = 0; confirmed = 0; live_sum = 0; live_peak = 0; horizon_evicted = 0;
      capacity_evicted = 0; wall_ns = 0 }
  in
  let store = Plan.create_store ~horizon ~max_partials:4096 plan in
  let t0 = Stats.now_ns () in
  Array.iteri
    (fun k (inst : Detector.instance) ->
      let span name parent f =
        match spans with Some sp -> Spans.run sp ~name ~parent ~req:k f | None -> f (-1)
      in
      span 0 (-1) (fun event ->
          let out =
            span 1 event (fun _ -> Plan.step store ~event:inst.event ~timestamp:inst.timestamp ~tag:inst.tag)
          in
          let live = Plan.live store in
          r.live_sum <- r.live_sum + live;
          r.live_peak <- max r.live_peak live;
          r.horizon_evicted <- r.horizon_evicted + out.out_horizon_evicted;
          r.capacity_evicted <- r.capacity_evicted + out.out_capacity_evicted;
          let confirmed =
            List.filter
              (fun (tuple, _) ->
                r.candidates <- r.candidates + 1;
                span 2 event (fun _ -> Whynot.Pattern.Matcher.matches_set tuple ps))
              out.out_matches
          in
          r.confirmed <- r.confirmed + List.length confirmed;
          sink (List.map (fun (tuple, tags) -> { Detector.tuple; tags = List.rev tags }) confirmed)))
    insts;
  r.wall_ns <- Stats.now_ns () - t0;
  r

let median_ns f k =
  Stats.median (Array.init k (fun _ ->
    let a = Stats.now_ns () in
    f ();
    float_of_int (Stats.now_ns () - a)))

let gc_words () = (Gc.quick_stat ()).Gc.minor_words

(* The per-layer table of the traced run: [Detector.feed] passes and
   rebuilt passes interleaved (feed, untimed, timed, feed, untimed), so
   drift between passes shows as noise rather than as overhead or
   residual. *)
let layers ps tpl insts =
  let n = float_of_int (Array.length insts) in
  let compile_ns = median_ns (fun () -> ignore (Whynot.Cep.Compile.plan ps)) 15 in
  let plan = Whynot.Cep.Compile.plan ps in
  let horizon = Detector.template_horizon tpl in
  let feed_pass () =
    let d = Detector.of_template tpl in
    let t0 = Stats.now_ns () in
    Array.iter (fun i -> ignore (Detector.feed d i)) insts;
    float_of_int (Stats.now_ns () - t0) /. n
  in
  let rebuilt_pass ?spans () = rebuild ?spans ps ~horizon plan insts in
  let spans = Spans.create span_names in
  let feed_a = feed_pass () in
  let untimed_a = rebuilt_pass () in
  let timed = rebuilt_pass ~spans () in
  let feed_b = feed_pass () in
  let untimed_b = rebuilt_pass () in
  (* GC pauses on a pass of their own: the profiler's poller domain makes
     every minor collection a two-domain stop *)
  let _, pause_us = Procfs.with_gc_pauses (fun () -> rebuilt_pass ()) in
  (* output check: the rebuilt pipeline emits exactly Detector.feed's matches *)
  let mine = tally () and theirs = tally () in
  ignore (rebuild ~sink:(note mine) ps ~horizon plan insts);
  let d = Detector.of_template tpl in
  Array.iter (fun i -> note theirs (Detector.feed d i)) insts;
  let same = mine.count = theirs.count && String.equal (digest mine) (digest theirs) in
  let e2e = (feed_a +. feed_b) /. 2. in
  let rebuilt = float_of_int (untimed_a.wall_ns + untimed_b.wall_ns) /. 2. /. n in
  let self = (Spans.self_ns spans).(0) in
  let per_event ns = float_of_int ns /. n /. 1e3 in
  let step_us = per_event self.(1) and confirm_us = per_event self.(2) in
  let f x = Whynot.Report.Json.Float x in
  ( same,
    spans,
    [
      ("compile.us", f (compile_ns /. 1e3));
      ("plan.matrices", f (float_of_int (Plan.matrix_count plan)));
      ("plan.step_us", f step_us);
      ("plan.live_mean", f (float_of_int timed.live_sum /. n));
      ("plan.live_peak", f (float_of_int timed.live_peak));
      ("plan.horizon_evicted", f (float_of_int timed.horizon_evicted));
      ("plan.capacity_evicted", f (float_of_int timed.capacity_evicted));
      ("plan.candidates_per_event", f (float_of_int timed.candidates /. n));
      ("matcher.confirm_us", f confirm_us);
      ("matcher.confirm_ratio", f (float_of_int timed.confirmed /. float_of_int (max 1 timed.candidates)));
      ("detector.overhead_us", f ((e2e /. 1e3) -. step_us -. confirm_us));
      ("gc.pause_us", f (float_of_int pause_us /. n));
      ("trace.e2e_us", f (e2e /. 1e3));
      ("trace.residual_pct", f (100. *. (e2e -. rebuilt) /. e2e));
      ("trace.overhead_pct", f (100. *. ((float_of_int timed.wall_ns /. n) -. rebuilt) /. rebuilt));
      ("trace.noise_pct", f (100. *. Float.abs (feed_a -. feed_b) /. e2e));
    ] )

let run ~seed ~seconds ~trace ~spans_path =
  let ps = patterns () in
  (* set-up: compiling the query into a template; median of repeats *)
  let setup_ns = median_ns (fun () -> ignore (Detector.template ps)) 31 in
  let tpl = Detector.template ps in
  let insts = stream ~seed ~n:stream_len in
  let words0 = gc_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let h, fed, matches, errors, wall, pass_cpu, passes = measure tpl insts ~seconds in
  (* peak memory of the measured work, before the output checks run their
     oracles *)
  let peak_rss_mb = Procfs.peak_rss_mb (Unix.getpid ()) in
  let words = gc_words () -. words0 and majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let ok, prefix_matches, prefix_evicted = check_prefix ps insts ~len:20_000 ~max_partials:200 in
  let pass_ns = Stats.median passes in
  let f x = Whynot.Report.Json.Float x and i x = Whynot.Report.Json.Int x in
  let metrics =
    [
      (* medians over whole passes, so a burst of CPU steal or of load
         from other tenants during one pass does not move the run's
         figure *)
      ("throughput_per_s", f (1e9 /. pass_ns));
      ("p50_us", f (Stats.hist_percentile h 50. /. 1e3));
      ("p99_us", f (Stats.hist_percentile h 99. /. 1e3));
      ("cpu_us_per_op", f (Stats.median pass_cpu));
      ("setup_s", f (setup_ns /. 1e9));
      ("peak_rss_mb", f peak_rss_mb);
      ("error_ratio", f (float_of_int errors /. float_of_int fed));
    ]
  in
  let facts =
    [
      ("events", i fed); ("matches", i matches); ("passes", i (Array.length passes));
      ("wall_s", f wall); ("prefix_matches", i prefix_matches);
      ("prefix_capacity_evicted", i prefix_evicted);
      ("partials_peak", i (Option.value ~default:0 (Whynot.Obs.find_gauge "detector.partials_peak")));
      ("capacity_evicted", i (Option.value ~default:0 (Whynot.Obs.find_counter "detector.dropped_capacity")));
    ]
  in
  let gc =
    [ ("gc.minor_words_per_op", f (words /. float_of_int fed)); ("gc.major_collections", f (float_of_int majors)) ]
  in
  if trace then begin
    let same, spans, table = layers ps tpl insts in
    Spans.write spans spans_path;
    (ok && same && errors = 0, fed, errors, metrics, facts @ [ ("layers", Whynot.Report.Json.Obj (table @ gc)) ])
  end
  else (ok && errors = 0, fed, errors, metrics, facts)
