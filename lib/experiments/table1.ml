module Tuple = Events.Tuple

type result = {
  t1_matches : bool;
  t2_matches : bool;
  inconsistent_variant_rejected : bool;
  full_cost : int;
  full_bindings : int;
  bnb_leaves : int;
  bnb_same_repair : bool;
  single_cost : int;
  example3_cost : int;
  example3_e4 : string;
}

let p0 =
  Pattern.Parse.pattern_exn
    "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 2 hours"

let inconsistent_variant =
  Pattern.Parse.pattern_exn
    "SEQ(AND(E1, E3) ATLEAST 30, AND(E2, E4) ATLEAST 30) WITHIN 45"

(* Example 3: both traced events later than the reported passenger's. *)
let example3 =
  Pattern.Parse.pattern_exn
    "SEQ(SEQ(E1, E3) WITHIN 30, SEQ(E2, E4) WITHIN 30) ATLEAST 2 hours"

let hm = Events.Time.of_hm

let t1 =
  Tuple.of_list
    [ ("E1", hm "17:08"); ("E2", hm "18:58"); ("E3", hm "17:25"); ("E4", hm "19:13") ]

let t2 =
  Tuple.of_list
    [ ("E1", hm "17:06"); ("E2", hm "18:54"); ("E3", hm "17:24"); ("E4", hm "20:08") ]

let run () =
  let full engine =
    Option.get
      (Explain.Modification.explain ~strategy:Explain.Modification.Full ~engine
         [ p0 ] t2)
  in
  (* Algorithm 2 as published sweeps every binding; branch-and-bound (the
     default engine) must return the same repair from fewer leaves. *)
  let flat = full Explain.Modification.Flat in
  let bnb = full (Explain.Modification.Bnb { domains = 1 }) in
  let single =
    Option.get
      (Explain.Modification.explain ~strategy:Explain.Modification.Single [ p0 ] t2)
  in
  let ex3 =
    Option.get
      (Explain.Modification.explain ~strategy:Explain.Modification.Full [ example3 ] t2)
  in
  {
    t1_matches = Pattern.Matcher.matches t1 p0;
    t2_matches = Pattern.Matcher.matches t2 p0;
    inconsistent_variant_rejected =
      not (Explain.Consistency.check [ inconsistent_variant ]).consistent;
    full_cost = flat.cost;
    full_bindings = flat.bindings_tried;
    bnb_leaves = bnb.bindings_tried;
    bnb_same_repair =
      bnb.cost = flat.cost && Tuple.equal bnb.repaired flat.repaired;
    single_cost = single.cost;
    example3_cost = ex3.cost;
    example3_e4 = Events.Time.to_hm (Tuple.find ex3.repaired "E4");
  }

let print r =
  Harness.print_table ~title:"Table 1 / Examples 1-6: worked flight scenario"
    ~header:[ "check"; "measured"; "paper" ]
    [
      [ "t1 |= p0"; string_of_bool r.t1_matches; "true" ];
      [ "t2 |= p0"; string_of_bool r.t2_matches; "false" ];
      [
        "inconsistent variant rejected";
        string_of_bool r.inconsistent_variant_rejected;
        "true";
      ];
      [ "Pattern(Full) cost on t2 (min)"; string_of_int r.full_cost; "44" ];
      [ "bindings enumerated"; string_of_int r.full_bindings; "16" ];
      [ "branch-and-bound leaves solved"; string_of_int r.bnb_leaves; "-" ];
      [ "branch-and-bound repair = swept repair"; string_of_bool r.bnb_same_repair; "-" ];
      [ "Pattern(Single) cost on t2"; string_of_int r.single_cost; "44" ];
      [ "Example 3 (simple STN) cost"; string_of_int r.example3_cost; "44" ];
      [ "Example 5 repaired E4"; r.example3_e4; "19:24" ];
    ]
