(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) plus the repository's ablations, then runs one
   Bechamel micro-benchmark per table/figure kernel. Every run also writes
   a JSON report (default BENCH.json) with per-section wall-clock and
   the engine's Obs metrics snapshot, so perf changes can be diffed
   across PRs with the compare mode below.

   Usage:
     dune exec bench/main.exe                 # standard scale (minutes)
     dune exec bench/main.exe -- --quick      # small scale (seconds)
     dune exec bench/main.exe -- --smoke      # tiny smoke subset (CI budget)
     dune exec bench/main.exe -- --paper      # the paper's full sizes
     dune exec bench/main.exe -- fig5 fig10   # only selected sections
     dune exec bench/main.exe -- --out o.json # report path
     dune exec bench/main.exe -- --trace t.jsonl --trace-format jsonl
     dune exec bench/main.exe -- --rt-events  # profile runtime GC pauses
     dune exec bench/main.exe -- compare A.json B.json [--threshold PCT]

   The compare mode is the perf regression gate: it diffs two bench
   reports on their deterministic work metrics (pivots, nodes,
   evictions, ...) and exits nonzero when any regressed past the
   threshold. Timings are printed but never gate. *)

open Whynot
module E = Experiments

(* --- compare mode: the perf regression gate --- *)

let compare_mode () =
  let threshold = ref 2.0 in
  let files = ref [] in
  let expect_threshold = ref false in
  Array.iteri
    (fun i arg ->
      if i > 1 then
        if !expect_threshold then begin
          (match float_of_string_opt arg with
          | Some t -> threshold := t
          | None ->
              prerr_endline "bench compare: --threshold expects a number";
              exit 2);
          expect_threshold := false
        end
        else
          match arg with
          | "--threshold" -> expect_threshold := true
          | f -> files := f :: !files)
    Sys.argv;
  match List.rev !files with
  | [ base_path; cur_path ] -> (
      let load path =
        match In_channel.with_open_text path In_channel.input_all with
        | exception Sys_error msg -> Error msg
        | text -> (
            match Report.Json.of_string text with
            | Ok v -> Ok v
            | Error msg -> Error (path ^ ": " ^ msg))
      in
      match (load base_path, load cur_path) with
      | Ok baseline, Ok current -> (
          match
            Report.Bench_compare.run ~threshold:!threshold ~baseline ~current
              ()
          with
          | Ok r ->
              Format.printf "comparing %s (baseline) -> %s@." base_path
                cur_path;
              Format.printf "%a@?" Report.Bench_compare.pp r;
              exit (if Report.Bench_compare.passed r then 0 else 1)
          | Error msg ->
              prerr_endline ("bench compare: " ^ msg);
              exit 2)
      | Error msg, _ | _, Error msg ->
          prerr_endline ("bench compare: " ^ msg);
          exit 2)
  | _ ->
      prerr_endline
        "usage: bench compare BASELINE.json CURRENT.json [--threshold PCT]";
      exit 2

let () =
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "compare" then
    compare_mode ()

type scale = Smoke | Quick | Standard | Paper

let scale = ref Standard
let only : string list ref = ref []
let report_path = ref "BENCH.json"
let trace_path : string option ref = ref None
let trace_format = ref Report.Trace_json.Jsonl
let trace_sample = ref 1
let rt_events = ref false

let () =
  let expect_csv_dir = ref false
  and expect_out = ref false
  and expect_trace = ref false
  and expect_trace_format = ref false
  and expect_trace_sample = ref false in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        if !expect_csv_dir then begin
          E.Harness.set_csv_dir (Some arg);
          expect_csv_dir := false
        end
        else if !expect_out then begin
          report_path := arg;
          expect_out := false
        end
        else if !expect_trace then begin
          trace_path := Some arg;
          expect_trace := false
        end
        else if !expect_trace_format then begin
          (match Report.Trace_json.format_of_string arg with
          | Some f -> trace_format := f
          | None ->
              prerr_endline "bench: --trace-format expects jsonl|chrome|folded";
              exit 2);
          expect_trace_format := false
        end
        else if !expect_trace_sample then begin
          (match int_of_string_opt arg with
          | Some n when n >= 1 -> trace_sample := n
          | _ ->
              prerr_endline "bench: --trace-sample expects an integer >= 1";
              exit 2);
          expect_trace_sample := false
        end
        else
          match arg with
          | "--smoke" -> scale := Smoke
          | "--quick" -> scale := Quick
          | "--paper" -> scale := Paper
          | "--standard" -> scale := Standard
          | "--csv" -> expect_csv_dir := true
          | "--out" -> expect_out := true
          | "--trace" -> expect_trace := true
          | "--trace-format" -> expect_trace_format := true
          | "--trace-sample" -> expect_trace_sample := true
          | "--rt-events" -> rt_events := true
          | section -> only := section :: !only)
    Sys.argv

let () =
  if !rt_events then begin
    Obs.Rt_events.start ();
    at_exit Obs.Rt_events.stop
  end

let () =
  match !trace_path with
  | None -> ()
  | Some path ->
      Obs.Trace.configure ~sample:!trace_sample ();
      at_exit (fun () ->
          Report.Trace_json.write_file ~format:!trace_format path
            (Obs.Trace.events ()))

(* The smoke scale reuses the quick parameters but runs only a cheap
   representative subset of sections, so `dune build @bench-smoke` fits a
   test-suite time budget. *)
let smoke_sections =
  [
    "table1"; "table2"; "fig5"; "bnb"; "trace"; "serve"; "serve_mt";
    "serve_trace"; "serve_gc"; "detect";
  ]

let () =
  if !scale = Smoke && !only = [] then only := smoke_sections

let pick ~quick ~standard ~paper =
  match !scale with Smoke | Quick -> quick | Standard -> standard | Paper -> paper

let timings : (string * float) list ref = ref []

let section name f =
  if !only = [] || List.mem name !only then begin
    Format.printf "@.=== %s ===@.@." name;
    let (), dt = E.Harness.time f in
    timings := (name, dt) :: !timings;
    Format.printf "[section %s took %.1f s]@." name dt
  end

(* --- paper tables --- *)

let table1 () = E.Table1.print (E.Table1.run ())

let table2 () =
  E.Table2.print (E.Table2.run ~instances:(pick ~quick:2 ~standard:5 ~paper:10) ())

(* --- consistency: Figure 5 --- *)

let fig5 () =
  let ns = pick ~quick:[ 1; 2; 3 ] ~standard:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
      ~paper:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  let repeats = pick ~quick:2 ~standard:5 ~paper:10 in
  E.Fig5.print (E.Fig5.run { E.Fig5.default with ns; repeats })

(* --- modification: Figures 6-11 --- *)

let fig6 () =
  let config =
    {
      E.Fig6.default with
      event_counts = pick ~quick:[ 4; 6 ] ~standard:[ 4; 6; 8; 10 ] ~paper:[ 4; 6; 8; 10 ];
      days = pick ~quick:8 ~standard:20 ~paper:30;
    }
  in
  E.Fig6.print (E.Fig6.run config)

let rtfm_tuples () = pick ~quick:200 ~standard:6000 ~paper:10_000

let fig7 () =
  E.Rtfm_sweep.print ~title:"Figure 7: varying fault rate (distance 200)" ~vary:`Rate
    (E.Rtfm_sweep.fig7 ~tuples:(rtfm_tuples ())
       ~rates:[ 0.02; 0.05; 0.1; 0.15; 0.2 ] ())

let fig8 () =
  E.Rtfm_sweep.print ~title:"Figure 8: varying fault distance (rate 0.1)"
    ~vary:`Distance
    (E.Rtfm_sweep.fig8 ~tuples:(rtfm_tuples ()) ~distances:[ 50; 100; 200; 300; 400 ] ())

let fig9 () =
  let tuple_counts =
    pick ~quick:[ 100; 200 ] ~standard:[ 1000; 2000; 4000; 6000 ]
      ~paper:[ 2000; 4000; 6000; 8000; 10_000 ]
  in
  E.Rtfm_sweep.print ~title:"Figure 9: varying tuple number (rate 0.1, distance 200)"
    ~vary:`Tuples
    (E.Rtfm_sweep.fig9 ~tuple_counts ())

let fig10 () =
  let config =
    {
      E.Synthetic.default_fig10 with
      ns = pick ~quick:[ 4; 6 ] ~standard:[ 4; 6; 8; 10; 12 ] ~paper:[ 4; 6; 8; 10; 12 ];
      tuples = pick ~quick:100 ~standard:500 ~paper:1000;
    }
  in
  E.Synthetic.print
    ~title:"Figure 10: AND with embedded SEQ, ATLEAST 900 WITHIN 1000"
    (E.Synthetic.fig10 config)

let fig11 () =
  let config =
    {
      E.Synthetic.default_fig11 with
      ns =
        pick ~quick:[ 2; 4 ] ~standard:[ 2; 3; 4; 5; 6; 8; 10 ]
          ~paper:[ 2; 3; 4; 5; 6; 8; 10 ];
      tuples = pick ~quick:100 ~standard:500 ~paper:1000;
    }
  in
  E.Synthetic.print
    ~title:"Figure 11: AND without embedded SEQ, ATLEAST 900 WITHIN 1000"
    (E.Synthetic.fig11 config)

(* --- application: Figure 12 --- *)

let fig12_config () =
  {
    E.Fig12.default with
    answers = pick ~quick:60 ~standard:200 ~paper:300;
    non_answers = pick ~quick:20 ~standard:70 ~paper:100;
  }

let fig12a () =
  E.Fig12.print ~title:"Figure 12(a): query accuracy vs fault rate (distance 160)"
    ~vary:`Rate
    (E.Fig12.fig12a ~config:(fig12_config ()) ~rates:[ 0.05; 0.1; 0.15; 0.2 ] ())

let fig12b () =
  E.Fig12.print ~title:"Figure 12(b): query accuracy vs fault distance (rate 0.1)"
    ~vary:`Distance
    (E.Fig12.fig12b ~config:(fig12_config ()) ~distances:[ 40; 80; 160; 320 ] ())

(* --- ablations --- *)

let ablations () =
  E.Ablation.print_solver
    (E.Ablation.solver_ablation
       ~tuples:(pick ~quick:10 ~standard:50 ~paper:100)
       ~ns:[ 4; 8; 12 ] ());
  E.Ablation.print_sampling
    (E.Ablation.sampling_ablation
       ~repeats:(pick ~quick:10 ~standard:30 ~paper:50)
       ~n:3 ~sample_counts:[ 1; 2; 4; 8; 16; 32 ] ());
  E.Ablation.print_engines
    (E.Ablation.consistency_engine_ablation
       ~ns:(pick ~quick:[ 2; 4 ] ~standard:[ 2; 4; 6; 8; 10 ] ~paper:[ 2; 4; 6; 8; 10 ])
       ());
  E.Ablation.print_pw
    (E.Ablation.possible_worlds_ablation
       ~tuples:(pick ~quick:5 ~standard:20 ~paper:40)
       ~ns:[ 2; 3; 4 ] ());
  (* Multicore bulk explanation: identical results to sequential (tested);
     wall-time scaling is bounded by the cores actually available — domain
     counts beyond them only measure spawn/GC overhead, so the sweep stops
     at the recommended count. *)
  let cores = Domain.recommended_domain_count () in
  let domain_counts =
    List.filter (fun d -> d = 1 || d <= cores) [ 1; 2; 4; 8 ]
  in
  let prng = Whynot.Numeric.Prng.create 99 in
  let tuples = pick ~quick:100 ~standard:1000 ~paper:4000 in
  let clean = Datagen.Rtfm.generate prng ~tuples in
  let observed = Datagen.Faults.trace prng ~rate:0.5 ~distance:400 clean in
  let rows =
    List.map
      (fun domains ->
        let _, dt =
          E.Harness.time (fun () ->
              Whynot.Cep.Bulk.explain_trace ~domains
                ~strategy:Explain.Modification.Full Datagen.Rtfm.patterns observed)
        in
        [ string_of_int domains; E.Harness.ms dt ])
      domain_counts
  in
  E.Harness.print_table
    ~title:
      (Printf.sprintf
         "Ablation: multicore bulk explanation (%d RTFM tuples, Pattern(Full), %d core(s) available)"
         tuples cores)
    ~header:[ "domains"; "wall time (ms)" ]
    rows

(* --- branch-and-bound vs flat binding sweep --- *)

let counter_value name = Option.value ~default:0 (Obs.find_counter name)

let bnb () =
  let ns = pick ~quick:[ 4; 6 ] ~standard:[ 4; 6; 8; 10 ] ~paper:[ 4; 6; 8; 10; 12 ] in
  let tuples_per_n = pick ~quick:2 ~standard:8 ~paper:12 in
  let prng = Numeric.Prng.create 7 in
  let explain ~engine net t =
    Explain.Modification.explain_network ~strategy:Explain.Modification.Full
      ~engine net t
  in
  let total_flat = ref 0.0 and total_bnb = ref 0.0 in
  let rows =
    List.map
      (fun n ->
        (* AND(E1..En): n^2 bindings (n [min] choices x n [max] choices) —
           the binding space actually grows with n, unlike fig10's
           two-child AND. *)
        let pattern = Datagen.Workloads.fig11_pattern ~n in
        let net = Tcn.Encode.pattern_set [ pattern ] in
        let count = Tcn.Bindings.count net.set_bindings in
        let instances =
          List.init tuples_per_n (fun _ ->
              Datagen.Faults.tuple prng ~rate:0.5 ~distance:400
                (Datagen.Workloads.random_matching_tuple ~horizon:5000 prng
                   [ pattern ]))
        in
        let run engine =
          E.Harness.time (fun () ->
              List.map (fun t -> explain ~engine net t) instances)
        in
        let flat_results, flat_dt = run Explain.Modification.Flat in
        let nodes0 = counter_value "bnb.nodes_expanded" in
        let solves0 = counter_value "simplex.solves" in
        let bnb_results, bnb_dt = run Explain.Modification.Bnb in
        let nodes = counter_value "bnb.nodes_expanded" - nodes0 in
        (* LP solves: none, since leaves are priced from their closure and
           the winner's repair is read off its closure; a leaf past 12
           active events would solve one *)
        let solves = counter_value "simplex.solves" - solves0 in
        (* The whole point: same optimum, same repaired tuple, on every
           instance. *)
        let same a b =
          List.iter2
            (fun a b ->
              match (a, b) with
              | None, None -> ()
              | Some ra, Some rb ->
                  assert (ra.Explain.Modification.cost = rb.Explain.Modification.cost);
                  assert (
                    Events.Tuple.equal ra.Explain.Modification.repaired
                      rb.Explain.Modification.repaired)
              | _ -> assert false)
            a b
        in
        same flat_results bnb_results;
        let leaves =
          List.fold_left
            (fun acc r ->
              match r with
              | Some { Explain.Modification.bindings_tried; _ } ->
                  acc + bindings_tried
              | None -> acc)
            0 bnb_results
        in
        total_flat := !total_flat +. flat_dt;
        total_bnb := !total_bnb +. bnb_dt;
        [
          string_of_int n;
          string_of_int (count * tuples_per_n);
          string_of_int nodes;
          string_of_int leaves;
          string_of_int solves;
          E.Harness.ms flat_dt;
          E.Harness.ms bnb_dt;
          Printf.sprintf "%.1fx" (flat_dt /. bnb_dt);
        ])
      ns
  in
  E.Harness.print_table
    ~title:
      (Printf.sprintf
         "Branch-and-bound vs flat Full sweep (fig11 family, %d faulted \
          tuple(s) per n)"
         tuples_per_n)
    ~header:
      [ "n"; "|Aleph_Gamma|"; "bnb nodes"; "bnb leaves"; "LP solves";
        "flat (ms)"; "bnb (ms)"; "speedup" ]
    rows;
  timings := ("bnb/flat-total", !total_flat) :: !timings;
  timings := ("bnb/serial-total", !total_bnb) :: !timings;
  Format.printf "bnb speedup over flat: %.2fx@." (!total_flat /. !total_bnb)

(* --- Bechamel micro-benchmarks: one Test.make per table/figure kernel --- *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let p0 =
    Pattern.Parse.pattern_exn
      "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 2 hours"
  in
  let t2 =
    Events.Tuple.of_list [ ("E1", 1026); ("E2", 1134); ("E3", 1044); ("E4", 1208) ]
  in
  let net = Tcn.Encode.pattern_set [ p0 ] in
  let fig5_patterns = Datagen.Workloads.fig4_pattern_set ~n:4 ~b:2 in
  let prng = Numeric.Prng.create 123 in
  let flight = Datagen.Flight.generate prng ~num_events:6 ~days:1 in
  let flight_tuple =
    snd (List.hd (Events.Trace.bindings flight.Datagen.Flight.observed))
  in
  let flight_net = Tcn.Encode.pattern_set [ flight.Datagen.Flight.pattern ] in
  let rtfm_tuple =
    let clean = snd (List.hd (Events.Trace.bindings (Datagen.Rtfm.generate prng ~tuples:1))) in
    Datagen.Faults.tuple prng ~rate:0.3 ~distance:200 clean
  in
  let rtfm_net = Tcn.Encode.pattern_set Datagen.Rtfm.patterns in
  let p10 = Datagen.Workloads.fig10_pattern ~n:8 in
  let t10 =
    Datagen.Faults.tuple prng ~rate:0.4 ~distance:500
      (Datagen.Workloads.random_matching_tuple ~horizon:5000 prng [ p10 ])
  in
  let net10 = Tcn.Encode.pattern_set [ p10 ] in
  let p11 = Datagen.Workloads.fig11_pattern ~n:6 in
  let t11 =
    Datagen.Faults.tuple prng ~rate:0.4 ~distance:500
      (Datagen.Workloads.random_matching_tuple ~horizon:5000 prng [ p11 ])
  in
  let net11 = Tcn.Encode.pattern_set [ p11 ] in
  let rtfm_trace =
    Datagen.Faults.trace prng ~rate:0.1 ~distance:160 (Datagen.Rtfm.generate prng ~tuples:20)
  in
  let tests =
    [
      Test.make ~name:"table1/modification-full-p0"
        (Staged.stage (fun () ->
             Explain.Modification.explain_network ~strategy:Explain.Modification.Full net
               t2));
      Test.make ~name:"table2/match-check-p0"
        (Staged.stage (fun () -> Pattern.Matcher.matches t2 p0));
      Test.make ~name:"fig5/consistency-full-n4"
        (Staged.stage (fun () -> Explain.Consistency.check fig5_patterns));
      Test.make ~name:"fig6/repair-single-flight"
        (Staged.stage (fun () ->
             Explain.Modification.explain_network ~strategy:Explain.Modification.Single
               flight_net flight_tuple));
      Test.make ~name:"fig7-9/repair-single-rtfm"
        (Staged.stage (fun () ->
             Explain.Modification.explain_network ~strategy:Explain.Modification.Single
               rtfm_net rtfm_tuple));
      Test.make ~name:"fig10/repair-full-general-n8"
        (Staged.stage (fun () ->
             Explain.Modification.explain_network ~strategy:Explain.Modification.Full
               net10 t10));
      Test.make ~name:"fig11/repair-single-and-n6"
        (Staged.stage (fun () ->
             Explain.Modification.explain_network ~strategy:Explain.Modification.Single
               net11 t11));
      Test.make ~name:"fig12/explain-trace-20-tuples"
        (Staged.stage (fun () ->
             Cep.Query.explain_trace ~strategy:Explain.Modification.Single ~max_cost:480
               Datagen.Rtfm.patterns rtfm_trace));
      Test.make ~name:"ablation/repair-flow-general-n8"
        (Staged.stage (fun () ->
             Explain.Modification.explain_network ~solver:Explain.Modification.Flow
               ~strategy:Explain.Modification.Full net10 t10));
      Test.make ~name:"ablation/consistency-pruned-n4"
        (Staged.stage (fun () ->
             Explain.Consistency.check ~strategy:Explain.Consistency.Pruned
               fig5_patterns));
      Test.make ~name:"extension/query-repair-p0"
        (Staged.stage (fun () -> Explain.Query_repair.explain [ p0 ] [ t2 ]));
      Test.make ~name:"extension/topk-p0"
        (Staged.stage (fun () -> Explain.Topk.explain ~k:3 [ p0 ] t2));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:1000
      ~quota:(Time.second (pick ~quick:0.2 ~standard:0.5 ~paper:1.0))
      ~stabilize:true ()
  in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"whynot" tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns_per_run =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> nan
        in
        (name, ns_per_run) :: acc)
      results []
    |> List.sort (fun (na, ta) (nb, tb) ->
           match String.compare na nb with 0 -> Float.compare ta tb | c -> c)
  in
  E.Harness.print_table ~title:"Bechamel micro-benchmarks (per-call latency)"
    ~header:[ "kernel"; "time per call" ]
    (List.map
       (fun (name, ns) ->
         let human =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
           else Printf.sprintf "%.1f us" (ns /. 1e3)
         in
         [ name; human ])
       rows)

(* --- tracing overhead (acceptance: < 5% on a standard explain run) --- *)

(* Captured before the trace section runs its extra workload, so the
   report's metrics cover exactly the same work as a run without the
   trace section — keeping `compare` parity with earlier bench reports.
   The trace section must therefore stay ordered last. *)
let metrics_before_trace : Obs.snapshot option ref = ref None
let trace_overhead : (string * Report.Json.t) list ref = ref []

let trace_section () =
  metrics_before_trace := Some (Obs.snapshot ());
  let n = pick ~quick:6 ~standard:8 ~paper:10 in
  let tuples = pick ~quick:4 ~standard:12 ~paper:16 in
  let prng = Numeric.Prng.create 11 in
  let pattern = Datagen.Workloads.fig11_pattern ~n in
  let net = Tcn.Encode.pattern_set [ pattern ] in
  let instances =
    List.init tuples (fun _ ->
        Datagen.Faults.tuple prng ~rate:0.5 ~distance:400
          (Datagen.Workloads.random_matching_tuple ~horizon:5000 prng
             [ pattern ]))
  in
  let run () =
    List.iter
      (fun t ->
        ignore
          (Explain.Modification.explain_network
             ~strategy:Explain.Modification.Full net t))
      instances
  in
  run () (* warm-up *);
  let was_enabled = Obs.Trace.enabled_now () in
  Obs.Trace.disable ();
  let (), off_dt = E.Harness.time run in
  (* Respect a user-supplied --trace ring (keep appending to it);
     otherwise configure a throwaway one at default sampling. *)
  if was_enabled then Obs.Trace.enable () else Obs.Trace.configure ();
  let e0 = Obs.Trace.emitted () and d0 = Obs.Trace.dropped () in
  let (), on_dt = E.Harness.time run in
  let emitted = Obs.Trace.emitted () - e0
  and dropped = Obs.Trace.dropped () - d0 in
  if not was_enabled then Obs.Trace.disable ();
  let overhead_pct = (on_dt -. off_dt) /. off_dt *. 100.0 in
  Format.printf
    "tracing off: %.3f s   on: %.3f s   overhead: %+.2f%%   (%d event(s), %d \
     dropped)@."
    off_dt on_dt overhead_pct emitted dropped;
  trace_overhead :=
    [
      ("off_seconds", Report.Json.Float off_dt);
      ("on_seconds", Report.Json.Float on_dt);
      ("overhead_pct", Report.Json.Float overhead_pct);
      ("events_emitted", Report.Json.Int emitted);
      ("events_dropped", Report.Json.Int dropped);
    ]

(* --- serve: scrape cost and per-event ingest latency --- *)

(* The domain-spawning workload lives in [Serve_load] (keeping this file
   free of Domain.spawn for the domain-safety rule); ordered after the
   trace section so its counters stay out of the report's metrics
   snapshot (compare parity with earlier reports). *)
let serve_stats : (string * Report.Json.t) list ref = ref []

let serve_section () =
  serve_stats :=
    Serve_load.run
      ~events:(pick ~quick:2_000 ~standard:10_000 ~paper:40_000)
      ~scrapes:(pick ~quick:50 ~standard:200 ~paper:500)

(* serve_mt, serve_trace, serve_gc: [Serve_load]'s keyed keep-alive soak
   under its three toggles — the sequential baseline against the pooled
   stack (latency histogram, p99 gate, 3x throughput gate), tail capture
   off then on (per-stage latency, <10% overhead gate) and the GC-pause
   poller off then on (pause percentiles, attribution, <5% overhead
   gate). The wall-clock gates arm only at gating scales on >=4 cores.
   Post-trace for the same compare-parity reason as serve. *)
let soak_stats : (string * Report.Json.t) list ref = ref []

let soak_section name run =
  section name (fun () ->
      let fields =
        run
          ~events:(pick ~quick:4_000 ~standard:20_000 ~paper:60_000)
          ~gate:
            (match !scale with Standard | Paper -> true | Smoke | Quick -> false)
      in
      soak_stats := !soak_stats @ [ (name, Report.Json.Obj fields) ])

(* --- detect: the streaming detector, naive oracle vs compiled plan ---

   Replays one deterministic interleaved stream through both engines.
   The differential check is hard (the bench fails on any disagreement in
   matches or eviction counters); the numbers are the point — the
   compiled plan's per-event cost against the enumerate-off-the-AST
   oracle. Ordered after the trace snapshot so its detector counters stay
   out of the report's gated metrics (compare parity with pre-detect
   reports). *)
let detect_stats : (string * Report.Json.t) list ref = ref []

let detect_section () =
  let events = pick ~quick:5_000 ~standard:40_000 ~paper:120_000 in
  let query = [ Pattern.Parse.pattern_exn "SEQ(A, B, C) WITHIN 50" ] in
  let prng = Numeric.Prng.create 42 in
  let types = [| "A"; "B"; "C"; "X" |] in
  let stream =
    let ts = ref 0 in
    List.init events (fun i ->
        ts := !ts + Numeric.Prng.int prng 3;
        {
          Cep.Detector.event = Numeric.Prng.choose prng types;
          timestamp = !ts;
          tag = Printf.sprintf "s%d" i;
        })
  in
  let run engine =
    let d = Cep.Detector.create ~engine ~max_partials:8192 query in
    let matches = ref 0 in
    let (), dt =
      E.Harness.time (fun () ->
          List.iter
            (fun i ->
              matches := !matches + List.length (Cep.Detector.feed d i))
            stream)
    in
    ( !matches,
      Cep.Detector.dropped_capacity d,
      Cep.Detector.evicted_horizon d,
      dt )
  in
  let nm, nd, nh, naive_dt = run Cep.Detector.Naive in
  let cm, cd, ch, compiled_dt = run Cep.Detector.Compiled in
  if nm <> cm || nd <> cd || nh <> ch then
    failwith
      (Printf.sprintf
         "detect: engines disagree (naive %d matches/%d dropped/%d expired, \
          compiled %d/%d/%d)"
         nm nd nh cm cd ch);
  let per_event dt = dt /. float_of_int events *. 1e6 in
  let speedup = naive_dt /. compiled_dt in
  Format.printf
    "detect: %d event(s), %d match(es)@.naive:    %.3f s (%.2f us/event)@.compiled: %.3f s (%.2f us/event)  speedup %.1fx@."
    events nm naive_dt (per_event naive_dt) compiled_dt
    (per_event compiled_dt) speedup;
  detect_stats :=
    [
      ("events", Report.Json.Int events);
      ("matches", Report.Json.Int nm);
      ("naive_seconds", Report.Json.Float naive_dt);
      ("naive_us_per_event", Report.Json.Float (per_event naive_dt));
      ("compiled_seconds", Report.Json.Float compiled_dt);
      ("compiled_us_per_event", Report.Json.Float (per_event compiled_dt));
      ("speedup", Report.Json.Float speedup);
    ]

let scale_name () =
  match !scale with
  | Smoke -> "smoke"
  | Quick -> "quick"
  | Standard -> "standard"
  | Paper -> "paper"

(* Per-scenario wall-clock + the full metrics snapshot (key solver and
   detector counters included), the perf trajectory's data points. *)
let write_report () =
  let open Report.Json in
  let metrics =
    match !metrics_before_trace with Some m -> m | None -> Obs.snapshot ()
  in
  let report =
    Obj
      ([
         ("schema", String "whynot.bench/1");
         ("scale", String (scale_name ()));
         ( "sections",
           List
             (List.rev_map
                (fun (name, dt) ->
                  Obj [ ("name", String name); ("seconds", Float dt) ])
                !timings) );
         ("metrics", Report.Obs_json.render metrics);
       ]
      @ (match !trace_overhead with
        | [] -> []
        | fields -> [ ("trace_overhead", Obj fields) ])
      @ (match !serve_stats with
        | [] -> []
        | fields -> [ ("serve", Obj fields) ])
      @ !soak_stats
      @
      match !detect_stats with
      | [] -> []
      | fields -> [ ("detect", Obj fields) ])
  in
  let oc = open_out !report_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ~indent:2 report ^ "\n"));
  Format.printf "@.[wrote %s]@." !report_path

let () =
  Format.printf "whynot benchmark harness — scale: %s@." (scale_name ());
  section "table1" table1;
  section "table2" table2;
  section "fig5" fig5;
  section "fig6" fig6;
  section "fig7" fig7;
  section "fig8" fig8;
  section "fig9" fig9;
  section "fig10" fig10;
  section "fig11" fig11;
  section "fig12a" fig12a;
  section "fig12b" fig12b;
  section "bnb" bnb;
  section "ablations" ablations;
  section "micro" micro;
  (* Trace and serve must stay after every workload section: the trace
     section snapshots [metrics_before_trace] first, keeping its own and
     serve's counter traffic out of the report. *)
  section "trace" trace_section;
  section "serve" serve_section;
  soak_section "serve_mt" Serve_load.run_mt;
  soak_section "serve_trace" Serve_load.run_trace;
  soak_section "serve_gc" Serve_load.run_gc;
  section "detect" detect_section;
  write_report ()
