module Tuple = Events.Tuple
module Event = Events.Event

let tuple t =
  Json.Obj
    (Tuple.fold
       (fun e ts acc -> if Event.is_artificial e then acc else (e, Json.Int ts) :: acc)
       t []
    |> List.rev)

let diff ~before ~after =
  Json.List
    (List.map
       (fun (e, o, n) ->
         Json.Obj [ ("event", Json.String e); ("from", Json.Int o); ("to", Json.Int n) ])
       (Tuple.diff before after))

let consistency (r : Explain.Consistency.report) =
  Json.Obj
    ([
       ("consistent", Json.Bool r.consistent);
       ("bindings_checked", Json.Int r.bindings_checked);
       ("exact", Json.Bool r.exact);
     ]
    @ match r.witness with Some w -> [ ("witness", tuple w) ] | None -> [])

let modification ~original (r : Explain.Modification.result) =
  Json.Obj
    [
      ("cost", Json.Int r.cost);
      ("bindings_tried", Json.Int r.bindings_tried);
      ("exact", Json.Bool r.exact);
      ("changes", diff ~before:original ~after:r.repaired);
      ("repaired", tuple r.repaired);
    ]

let window (w : Pattern.Ast.window) =
  Json.Obj
    ((match w.atleast with Some a -> [ ("atleast", Json.Int a) ] | None -> [])
    @ match w.within with Some b -> [ ("within", Json.Int b) ] | None -> [])

let query_repair (r : Explain.Query_repair.t) =
  Json.Obj
    [
      ("cost", Json.Int r.cost);
      ( "patterns",
        Json.List (List.map (fun p -> Json.String (Pattern.Ast.to_string p)) r.patterns)
      );
      ( "changes",
        Json.List
          (List.map
             (fun (c : Explain.Query_repair.window_change) ->
               Json.Obj
                 [
                   ( "path",
                     Json.List (List.map (fun i -> Json.Int i) c.path) );
                   ("node", Json.String (Pattern.Ast.to_string c.node));
                   ("old_window", window c.old_window);
                   ("new_window", window c.new_window);
                   ("cost", Json.Int c.change_cost);
                 ])
             r.changes) );
    ]

let pipeline ~original = function
  | Explain.Pipeline.Already_answer ->
      Json.Obj [ ("outcome", Json.String "already_answer") ]
  | Explain.Pipeline.Inconsistent_query r ->
      Json.Obj
        [ ("outcome", Json.String "inconsistent_query"); ("consistency", consistency r) ]
  | Explain.Pipeline.Modify_timestamps r ->
      Json.Obj
        [
          ("outcome", Json.String "modify_timestamps");
          ("explanation", modification ~original r);
        ]
  | Explain.Pipeline.Modify_query r ->
      Json.Obj
        [ ("outcome", Json.String "modify_query"); ("explanation", query_repair r) ]
  | Explain.Pipeline.No_explanation ->
      Json.Obj [ ("outcome", Json.String "no_explanation") ]

let failure_class (c : Explain.Diagnose.failure_class) =
  Json.Obj
    [
      ("description", Json.String c.description);
      ("tuples", Json.List (List.map (fun id -> Json.String id) c.tuples));
    ]

let diagnose (d : Explain.Diagnose.t) =
  Json.Obj
    [
      ("total", Json.Int d.total);
      ("answers", Json.Int d.answers);
      ("missing_events", Json.List (List.map failure_class d.missing_events));
      ("order_violations", Json.List (List.map failure_class d.order_violations));
      ("window_violations", Json.List (List.map failure_class d.window_violations));
      ( "repair_costs",
        Json.Obj (List.map (fun (id, c) -> (id, Json.Int c)) d.repair_costs) );
      ( "median_repair_cost",
        match d.median_repair_cost with Some m -> Json.Int m | None -> Json.Null );
    ]
