(* Regenerates the exposition mapping table in docs/OBSERVABILITY.md from
   the live registry, so the documented names can never drift from the
   mangling Report.Prom_text actually performs:

     dune exec tools/metrics_table/main.exe

   and paste the output over the table in the docs. Every metric
   registers when its module initialises; running each entry point once
   links every instrumented module into this binary, mirroring the
   runtime @metrics-lint. *)

open Whynot

let () =
  let p0 = Pattern.Parse.pattern_exn "SEQ(A, B) WITHIN 20" in
  let t = Events.Tuple.of_list [ ("A", 0); ("B", 50) ] in
  ignore (Explain.Pipeline.explain [ p0 ] t);
  ignore (Cep.Bulk.explain_trace [ p0 ] (Events.Trace.of_list [ ("t0", t) ]));
  let detector = Cep.Detector.create [ p0 ] in
  ignore
    (Cep.Detector.feed detector
       { Cep.Detector.event = "A"; timestamp = 0; tag = "x" });
  let stream = Cep.Stream.create [ p0 ] in
  ignore (Cep.Stream.feed stream ~key:"k" "A" 0);
  (* a 4-shard pool registers the per-shard serve.shard.<k>.* series; the
     docs enumerate exactly these four (higher shard counts follow the
     same pattern) *)
  ignore (Serve.Service.create ~shards:4 [ p0 ]);
  let snap = Obs.snapshot () in
  let keep (name, _) = not (String.starts_with ~prefix:"test." name) in
  let row source kind exposition =
    Printf.printf "| `%s` | %s | %s |\n" source kind exposition
  in
  print_string "| source metric | kind | exposition series |\n";
  print_string "|---|---|---|\n";
  let mangle = Report.Prom_text.mangle in
  List.iter
    (fun (name, _) -> row name "counter" (Printf.sprintf "`%s`" (mangle name)))
    (List.filter keep snap.Obs.counters);
  List.iter
    (fun (name, _) -> row name "gauge" (Printf.sprintf "`%s`" (mangle name)))
    (List.filter keep snap.Obs.gauges);
  List.iter
    (fun (name, _) ->
      row name "histogram"
        (Printf.sprintf "`%s` (`_bucket{le=...}`, `_sum`, `_count`)"
           (mangle name)))
    (List.filter keep snap.Obs.histograms);
  List.iter
    (fun (name, _) ->
      row name "span"
        (Printf.sprintf "`%s%s` (`_sum`, `_count`), `%s%s`" (mangle name)
           Report.Prom_text.span_suffix (mangle name)
           Report.Prom_text.span_max_suffix))
    (List.filter keep snap.Obs.spans)
