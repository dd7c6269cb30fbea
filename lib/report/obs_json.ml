let hist (h : Obs.hist_snapshot) =
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Int h.h_sum);
      ( "buckets",
        Json.List
          (List.map
             (fun (bound, n) ->
               Json.Obj
                 [
                   ( "le",
                     match bound with
                     | Some b -> Json.Int b
                     | None -> Json.String "inf" );
                   ("n", Json.Int n);
                 ])
             h.h_buckets) );
    ]

let span (s : Obs.span_snapshot) =
  Json.Obj
    [
      ("count", Json.Int s.s_count);
      ("total_ms", Json.Float (float_of_int s.total_ns /. 1e6));
      ("max_ms", Json.Float (float_of_int s.max_ns /. 1e6));
    ]

let render ?(timers = true) (snap : Obs.snapshot) =
  let obj section f = Json.Obj (List.map (fun (name, v) -> (name, f v)) section) in
  Json.Obj
    (("counters", obj snap.counters (fun n -> Json.Int n))
    :: ("gauges", obj snap.gauges (fun n -> Json.Int n))
    :: ("histograms", obj snap.histograms hist)
    :: (if timers then [ ("spans", obj snap.spans span) ] else []))

let snapshot ?timers () = render ?timers (Obs.snapshot ())
