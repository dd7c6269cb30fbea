(* The explain workload: a seeded, shuffled stream of why-not requests
   through [Explain.Pipeline.explain] at its defaults (Full, Bnb, Lp), one
   at a time as the CLI runs them. Most are faulted RTFM cases; a minority
   are Flight days of 4 and 6 events. *)

module Prng = Whynot.Numeric.Prng
module Tuple = Whynot.Events.Tuple
module Pipeline = Whynot.Explain.Pipeline
module Modification = Whynot.Explain.Modification
module Dg = Whynot.Datagen

let families = [| "rtfm"; "flight4"; "flight6" |]

type request = { family : int; patterns : Whynot.Pattern.Ast.t list; tuple : Tuple.t }

(* The seed draws the RTFM cases, their faults and the order. The Flight
   days come from one fixed corpus: a Flight-6 day costs anywhere from
   20 to 500 ms, so a dozen freshly drawn days would make the run's total
   work swing by tens of percent from seed to seed. *)
let flight_corpus_seed = 20210620

let requests ~seed =
  let prng = Prng.create ((seed * 977) + 11) in
  let rtfm =
    Dg.Rtfm.generate prng ~tuples:2000 |> Dg.Faults.trace prng ~rate:0.5 ~distance:2000
  in
  let fprng = Prng.create flight_corpus_seed in
  let f4 = Dg.Flight.generate fprng ~num_events:4 ~days:100 in
  let f6 = Dg.Flight.generate fprng ~num_events:6 ~days:12 in
  let of_trace family patterns tr =
    List.map (fun (_, tuple) -> { family; patterns; tuple }) (Whynot.Events.Trace.bindings tr)
  in
  let all =
    Array.of_list
      (of_trace 0 Dg.Rtfm.patterns rtfm
      @ of_trace 1 [ f4.pattern ] f4.observed
      @ of_trace 2 [ f6.pattern ] f6.observed)
  in
  Prng.shuffle prng all;
  all

(* The query texts as the CLI receives them, one per family. *)
let query_texts reqs =
  Array.map
    (fun fam ->
      let r = Array.to_list reqs |> List.find (fun r -> r.family = fam) in
      String.concat "; " (List.map Whynot.Pattern.Ast.to_string r.patterns))
    [| 0; 1; 2 |]

(* Set-up is what the CLI does once per query before explaining: parse
   and validate the query text. *)
let setup texts =
  Array.iter
    (fun text ->
      match Whynot.Pattern.Parse.pattern_set text with
      | Ok ps -> ignore (Whynot.Pattern.Ast.validate_set ps)
      | Error e -> failwith e)
    texts

let cost = function
  | Pipeline.Modify_timestamps m -> Some m.Modification.cost
  | _ -> None

(* Every repaired tuple must be an answer at the advertised cost. *)
let valid r = function
  | Pipeline.Already_answer -> Whynot.Pattern.Matcher.matches_set r.tuple r.patterns
  | Pipeline.Modify_timestamps m ->
      Whynot.Pattern.Matcher.matches_set m.repaired r.patterns
      && Tuple.delta r.tuple m.repaired = m.cost
  | Pipeline.Inconsistent_query _ | Pipeline.Modify_query _ | Pipeline.No_explanation -> false

(* [Pipeline.explain] over the shuffled requests, one whole round after
   another, until at least [seconds] have run; whole rounds keep the work
   of a run the same from run to run. The first round's outcomes are kept
   for the output checks. *)
let measure reqs ~seconds =
  let h = Stats.hist () in
  let fam = Array.map (fun _ -> Stats.hist ()) families in
  let n = Array.length reqs in
  let outcomes = Array.make n None in
  let done_ = ref 0 and errors = ref 0 in
  let rounds = ref [] in
  let t0 = Stats.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let r0 = ref (Stats.now_ns (), Procfs.self_cpu_s ()) in
  while !done_ mod n <> 0 || Stats.now_ns () < deadline do
    if !done_ > 0 && !done_ mod n = 0 then begin
      (* a round ended: its wall and CPU time per request *)
      let w0, c0 = !r0 in
      let now = Stats.now_ns () and cpu = Procfs.self_cpu_s () in
      rounds := (float_of_int (now - w0) /. 1e3 /. float_of_int n, (cpu -. c0) *. 1e6 /. float_of_int n) :: !rounds;
      r0 := (now, cpu)
    end;
    let r = reqs.(!done_ mod n) in
    let a = Stats.now_ns () in
    (match Pipeline.explain r.patterns r.tuple with
    | o -> if !done_ < n then outcomes.(!done_) <- Some o
    | exception (Invalid_argument _ | Not_found | Failure _) -> incr errors);
    let ns = Stats.now_ns () - a in
    Stats.record h ns;
    Stats.record fam.(r.family) ns;
    incr done_
  done;
  let w0, c0 = !r0 in
  let rounds =
    (float_of_int (Stats.now_ns () - w0) /. 1e3 /. float_of_int n, (Procfs.self_cpu_s () -. c0) *. 1e6 /. float_of_int n)
    :: !rounds
  in
  (h, fam, !done_, !errors, Array.of_list rounds, outcomes)

(* Output checks: validity of every kept outcome, and on a seeded sample
   the optimal cost equals that of the min-cost-flow solver. *)
let check ~seed reqs outcomes =
  let invalid = ref 0 and mismatched = ref 0 and checked = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | None -> ()
      | Some o ->
          incr checked;
          if not (valid reqs.(i) o) then incr invalid)
    outcomes;
  let prng = Prng.create ((seed * 7) + 1) in
  let n = Array.length reqs in
  let flights =
    List.filteri (fun k _ -> k < 40) (List.filter (fun i -> reqs.(i).family > 0) (List.init n Fun.id))
  in
  let sample = List.init 40 (fun _ -> Prng.int prng n) @ flights in
  List.iter
    (fun i ->
      let r = reqs.(i) in
      let lp = Pipeline.explain r.patterns r.tuple in
      let flow = Pipeline.explain ~solver:Modification.Flow r.patterns r.tuple in
      if cost lp <> cost flow then incr mismatched)
    sample;
  (!invalid = 0 && !mismatched = 0, !checked, !invalid, List.length sample, !mismatched)

(* --- traced run ----------------------------------------------------------- *)

module Matcher = Whynot.Pattern.Matcher
module Consistency = Whynot.Explain.Consistency
module Encode = Whynot.Tcn.Encode
module Bnb = Whynot.Explain.Bnb

let span_names =
  [| "explain.request"; "matcher.check"; "consistency.check"; "encode"; "bnb.search"; "lp.repair" |]

(* Work counts summed over requests; times come from the spans. *)
type counts = {
  mutable bindings_checked : int;
  mutable repair_calls : int;
  mutable nodes : int;
  mutable leaves : int;
  mutable pruned_bound : int;
  mutable pruned_inconsistent : int;
  mutable binding_space : int;
}

let counts () =
  { bindings_checked = 0; repair_calls = 0; nodes = 0; leaves = 0; pruned_bound = 0;
    pruned_inconsistent = 0; binding_space = 0 }

let strip_artificial t =
  Tuple.fold
    (fun e ts acc -> if Whynot.Events.Event.is_artificial e then acc else Tuple.add e ts acc)
    t Tuple.empty

(* [Pipeline.explain] rebuilt from its public parts, at its defaults: the
   matcher, the pruned consistency check, validation and encoding, and
   [Bnb.search] over a wrapped [Lp_repair.repair]. With [spans], the
   request is a span whose children are those steps, and every leaf solve
   is a child of the search. *)
let rebuilt ?spans c ~req r =
  let span name parent f =
    match spans with Some sp -> Spans.run sp ~name ~parent ~req f | None -> f (-1)
  in
  let ps = r.patterns and tuple = r.tuple in
  span 0 (-1) (fun root ->
      if span 1 root (fun _ -> Matcher.matches_set tuple ps) then Pipeline.Already_answer
      else
        let report = span 2 root (fun _ -> Consistency.check ~strategy:Consistency.Pruned ps) in
        c.bindings_checked <- c.bindings_checked + report.bindings_checked;
        if not report.consistent then Pipeline.Inconsistent_query report
        else
          let net, extended =
            span 3 root (fun _ ->
                (match Whynot.Pattern.Ast.validate_set ps with
                | Ok () -> ()
                | Error _ -> invalid_arg "invalid patterns");
                let net = Encode.pattern_set ps in
                (net, Encode.extend net tuple))
          in
          let { Bnb.best; stats } =
            span 4 root (fun search ->
                let repair ?cutoff t iv =
                  c.repair_calls <- c.repair_calls + 1;
                  span 5 search (fun _ -> Whynot.Explain.Lp_repair.repair ?cutoff t iv)
                in
                Bnb.search ~domains:1 ~repair net extended)
          in
          c.nodes <- c.nodes + stats.nodes_expanded;
          c.leaves <- c.leaves + stats.leaves_solved;
          c.pruned_bound <- c.pruned_bound + stats.pruned_bound;
          c.pruned_inconsistent <- c.pruned_inconsistent + stats.pruned_inconsistent;
          c.binding_space <- c.binding_space + Whynot.Tcn.Bindings.count net.set_bindings;
          match best with
          | None -> Pipeline.No_explanation
          | Some (repaired, cost) ->
              let repaired = Tuple.union_right tuple (strip_artificial repaired) in
              (* the pipeline's own postcondition *)
              assert (Matcher.matches_set repaired ps && Tuple.delta tuple repaired = cost);
              Pipeline.Modify_timestamps
                { Modification.repaired; cost; bindings_tried = stats.leaves_solved; exact = true })

let same_outcome a b =
  match (a, b) with
  | Pipeline.Already_answer, Pipeline.Already_answer | No_explanation, No_explanation -> true
  | Modify_timestamps x, Modify_timestamps y -> x.cost = y.cost && Tuple.equal x.repaired y.repaired
  | Inconsistent_query x, Inconsistent_query y -> x.consistent = y.consistent
  | _ -> false

let counter name = Option.value ~default:0 (Whynot.Obs.find_counter name)

(* The per-layer table on a sample of the shuffled requests — the first
   540 RTFM cases, 30 Flight-4 and 6 Flight-6 days in shuffled order —
   with pipeline and rebuilt passes interleaved (pipeline, untimed, traced,
   pipeline, untimed), so drift between passes shows as noise rather than
   as overhead. *)
let layers reqs =
  let quota = [| 540; 30; 6 |] in
  let sub =
    Array.of_list
      (List.filter
         (fun r ->
           quota.(r.family) <- quota.(r.family) - 1;
           quota.(r.family) >= 0)
         (Array.to_list reqs))
  in
  let n = float_of_int (Array.length sub) in
  let timed f =
    let t0 = Stats.now_ns () in
    let v = f () in
    (float_of_int (Stats.now_ns () - t0) /. n, v)
  in
  let pipeline_pass () = timed (fun () -> Array.map (fun r -> Pipeline.explain r.patterns r.tuple) sub) in
  let rebuilt_pass ?spans c = timed (fun () -> Array.mapi (fun req r -> rebuilt ?spans c ~req r) sub) in
  let c = counts () and spans = Spans.create span_names in
  let e2e_a, expected = pipeline_pass () in
  let untimed_a, _ = rebuilt_pass (counts ()) in
  let pushes0 = counter "stn_inc.pushes" and pivots0 = counter "simplex.pivots" in
  let traced_ns, got = rebuilt_pass ~spans c in
  let pushes = counter "stn_inc.pushes" - pushes0 and pivots = counter "simplex.pivots" - pivots0 in
  let e2e_b, _ = pipeline_pass () in
  let untimed_b, _ = rebuilt_pass (counts ()) in
  (* GC pauses on a pass of their own: the profiler's poller domain makes
     every minor collection a two-domain stop *)
  let _, pause_us = Procfs.with_gc_pauses (fun () -> rebuilt_pass (counts ())) in
  let same = Array.for_all2 same_outcome expected got in
  let e2e = (e2e_a +. e2e_b) /. 2. and untimed = (untimed_a +. untimed_b) /. 2. in
  let by_family = Spans.self_ns ~groups:3 ~group:(fun req -> sub.(req).family) spans in
  let all = Array.init (Array.length span_names) (fun k -> Array.fold_left (fun acc g -> acc + g.(k)) 0 by_family) in
  let f x = Whynot.Report.Json.Float x in
  let us ns = f (float_of_int ns /. n /. 1e3) and per x = f (float_of_int x /. n) in
  let table =
    [
      ("matcher.check_us", us all.(1));
      ("consistency.us", us all.(2));
      ("consistency.bindings_checked", per c.bindings_checked);
      ("encode.us", us all.(3));
      ("bnb.self_us", us all.(4));
      ("bnb.nodes_expanded", per c.nodes);
      ("bnb.leaves_solved", per c.leaves);
      ("bnb.pruned_bound", per c.pruned_bound);
      ("bnb.pruned_inconsistent", per c.pruned_inconsistent);
      ("bnb.leaf_ratio", f (float_of_int c.leaves /. float_of_int (max 1 c.binding_space)));
      ("stn_inc.pushes", per pushes);
      ("repair.us", us all.(5));
      ("repair.calls", per c.repair_calls);
      ("simplex.pivots", per pivots);
      ("pipeline.other_us", us all.(0));
      ("gc.pause_us", f (float_of_int pause_us /. n));
      ("trace.e2e_us", f (e2e /. 1e3));
      ("trace.residual_pct", f (100. *. (e2e -. untimed) /. e2e));
      ("trace.overhead_pct", f (100. *. (traced_ns -. untimed) /. untimed));
      ("trace.noise_pct", f (100. *. Float.abs (e2e_a -. e2e_b) /. e2e));
    ]
    @ List.concat
        (Array.to_list
           (Array.mapi
              (fun k name ->
                let g = by_family.(k) in
                let m = float_of_int (max 1 (Array.fold_left (fun acc r -> if r.family = k then acc + 1 else acc) 0 sub)) in
                let us ns = f (float_of_int ns /. m /. 1e3) in
                [
                  (name ^ ".total_us", us (Array.fold_left ( + ) 0 g));
                  (name ^ ".check_us", us g.(1));
                  (name ^ ".consistency_us", us g.(2));
                  (name ^ ".encode_us", us g.(3));
                  (name ^ ".bnb_self_us", us g.(4));
                  (name ^ ".repair_us", us g.(5));
                ])
              families))
  in
  (same, spans, table)

let run ~seed ~seconds ~trace ~spans_path =
  let reqs = requests ~seed in
  let texts = query_texts reqs in
  let setup_ns =
    Stats.median
      (Array.init 201 (fun _ ->
           let a = Stats.now_ns () in
           setup texts;
           float_of_int (Stats.now_ns () - a)))
  in
  let words0 = (Gc.quick_stat ()).Gc.minor_words and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let h, fam, done_, errors, rounds, outcomes = measure reqs ~seconds in
  (* peak memory of the measured work, before the output checks run their
     oracles *)
  let peak_rss_mb = Procfs.peak_rss_mb (Unix.getpid ()) in
  let words = (Gc.quick_stat ()).Gc.minor_words -. words0
  and majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let ok, checked, invalid, sampled, mismatched = check ~seed reqs outcomes in
  let f x = Whynot.Report.Json.Float x and i x = Whynot.Report.Json.Int x in
  let metrics =
    [
      (* medians over whole rounds, so a burst of CPU steal or of load
         from other tenants during one round does not move the figure *)
      ("throughput_per_s", f (1e6 /. Stats.median (Array.map fst rounds)));
      ("p50_us", f (Stats.hist_percentile h 50. /. 1e3));
      ("p99_us", f (Stats.hist_percentile h 99. /. 1e3));
      ("cpu_us_per_op", f (Stats.median (Array.map snd rounds)));
      ("setup_s", f (setup_ns /. 1e9));
      ("peak_rss_mb", f peak_rss_mb);
      ("error_ratio", f (float_of_int errors /. float_of_int done_));
    ]
  in
  let facts =
    [
      ("requests", i (Array.length reqs)); ("explained", i done_); ("checked", i checked);
      ("invalid", i invalid); ("flow_sampled", i sampled); ("flow_mismatched", i mismatched);
    ]
    @ Array.to_list
        (Array.mapi
           (fun k name ->
             ( name,
               Whynot.Report.Json.Obj
                 [
                   ("count", i fam.(k).Stats.n);
                   ("mean_us", f (Stats.hist_mean fam.(k) /. 1e3));
                   ("p50_us", f (Stats.hist_percentile fam.(k) 50. /. 1e3));
                 ] ))
           families)
  in
  if trace then begin
    let same, spans, table = layers reqs in
    Spans.write spans spans_path;
    let gc =
      [ ("gc.minor_words_per_op", f (words /. float_of_int done_)); ("gc.major_collections", f (float_of_int majors)) ]
    in
    (ok && same && errors = 0, done_, errors, metrics, facts @ [ ("layers", Whynot.Report.Json.Obj (table @ gc)) ])
  end
  else (ok && errors = 0, done_, errors, metrics, facts)

