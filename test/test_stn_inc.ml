open Whynot
module Condition = Tcn.Condition
module Stn = Tcn.Stn
module Stn_inc = Tcn.Stn_inc
module Tuple = Events.Tuple

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* An event's window [(lo, hi)] ([None] = unbounded above), read off the
   closure's origin column and row. *)
let window inc e =
  let evs = Stn_inc.events inc in
  let n = Array.length evs in
  let rec index i = if String.equal evs.(i) e then i else index (i + 1) in
  let i = index 0 in
  let hi = Stn_inc.distance inc n i in
  ( Tcn.Weight.neg (Stn_inc.distance inc i n),
    if hi >= Tcn.Weight.inf then None else Some hi )

let test_push_pop_basic () =
  let inc = Stn_inc.create [ "A"; "B"; "C" ] in
  check_bool "fresh is consistent" true (Stn_inc.consistent inc);
  check_bool "push ok" true (Stn_inc.push inc (Condition.interval ~lo:1 ~hi:5 "A" "B"));
  check_bool "push ok 2" true (Stn_inc.push inc (Condition.interval ~lo:1 ~hi:5 "B" "C"));
  check_int "depth" 2 (Stn_inc.depth inc);
  (* contradiction: C before A *)
  check_bool "contradiction detected" false
    (Stn_inc.push inc (Condition.interval ~lo:0 ~hi:1 "C" "A"));
  check_bool "inconsistent now" false (Stn_inc.consistent inc);
  Stn_inc.pop inc;
  check_bool "consistent after pop" true (Stn_inc.consistent inc);
  check_bool "can push again" true
    (Stn_inc.push inc (Condition.interval ~lo:0 "A" "C"))

let test_push_while_inconsistent_raises () =
  let inc = Stn_inc.create [ "A"; "B" ] in
  ignore (Stn_inc.push inc (Condition.interval ~lo:5 ~hi:5 "A" "B"));
  ignore (Stn_inc.push inc (Condition.interval ~lo:5 ~hi:5 "B" "A"));
  check_bool "inconsistent" false (Stn_inc.consistent inc);
  check_bool "push raises" true
    (try ignore (Stn_inc.push inc (Condition.interval "A" "B")); false
     with Invalid_argument _ -> true);
  Stn_inc.pop inc;
  Stn_inc.pop inc;
  check_bool "pop on empty raises" true
    (try Stn_inc.pop inc; false with Invalid_argument _ -> true)

let test_unknown_event () =
  let inc = Stn_inc.create [ "A" ] in
  check_bool "unknown event raises" true
    (try ignore (Stn_inc.push inc (Condition.interval "A" "Z")); false
     with Invalid_argument _ -> true)

let test_solution () =
  let inc = Stn_inc.create [ "A"; "B" ] in
  ignore (Stn_inc.push inc (Condition.interval ~lo:3 ~hi:3 "A" "B"));
  match Stn_inc.solution inc with
  | Some t -> check_int "distance respected" 3 (Tuple.find t "B" - Tuple.find t "A")
  | None -> Alcotest.fail "expected solution"

(* Regression: a huge lower bound used to wrap [add_arc]'s negative-cycle
   test, so a clearly impossible pair of pushes was accepted as consistent. *)
let test_extreme_bounds_no_wrap () =
  let inc = Stn_inc.create [ "A"; "B" ] in
  check_bool "huge lower bound accepted" true
    (Stn_inc.push inc (Condition.interval ~lo:max_int "A" "B"));
  check_bool "opposing bound detected as inconsistent" false
    (Stn_inc.push inc (Condition.interval ~lo:2 "B" "A"));
  check_bool "network flagged inconsistent" false (Stn_inc.consistent inc);
  Stn_inc.pop inc;
  check_bool "pop restores consistency" true (Stn_inc.consistent inc)

(* Equivalence with the batch engine under random push/pop sequences. *)
let prop_matches_batch =
  QCheck.Test.make ~name:"incremental consistency = batch consistency under pushes"
    ~count:300 (Gen.intervals ()) (fun phis ->
      let events =
        Events.Event.Set.elements (Condition.interval_events phis)
      in
      let inc = Stn_inc.create events in
      let rec push_all prefix = function
        | [] -> true
        | phi :: rest ->
            let prefix = phi :: prefix in
            let batch = Stn.consistent (Stn.of_intervals ~events prefix) in
            let ok = Stn_inc.push inc phi in
            (* each prefix must agree with the batch engine *)
            if ok <> batch then false
            else if not ok then true (* stop: caller may not push further *)
            else push_all prefix rest
      in
      push_all [] phis)

let prop_pop_restores =
  QCheck.Test.make ~name:"pop restores the exact previous state" ~count:200
    (QCheck.pair (Gen.intervals ()) (Gen.intervals ()))
    (fun (base, extra) ->
      let events =
        Events.Event.Set.elements
          (Condition.interval_events (base @ extra))
      in
      let inc = Stn_inc.create events in
      let rec push_while = function
        | [] -> true
        | phi :: rest -> if Stn_inc.push inc phi then push_while rest else false
      in
      if not (push_while base) then QCheck.assume_fail ()
      else begin
        let solution_before = Stn_inc.solution inc in
        let depth_before = Stn_inc.depth inc in
        (* push the extras (stopping on inconsistency), then pop them all *)
        let pushed = ref 0 in
        (try
           List.iter
             (fun phi ->
               incr pushed;
               if not (Stn_inc.push inc phi) then raise Exit)
             extra
         with Exit -> ());
        for _ = 1 to !pushed do
          Stn_inc.pop inc
        done;
        Stn_inc.depth inc = depth_before
        && Stn_inc.consistent inc
        && Stn_inc.solution inc = solution_before
      end)

(* Deep random push/pop interleavings: after every operation the maintained
   network must agree — consistency and every closure window — with a fresh
   network replaying the live stack from scratch. This is the exact-undo
   guarantee the branch-and-bound search rests on. *)
let test_push_pop_stress () =
  let st = Random.State.make [| 4711 |] in
  let events = List.init 6 (fun i -> Printf.sprintf "E%d" i) in
  let random_interval () =
    let pick () = List.nth events (Random.State.int st 6) in
    let src = pick () in
    let dst = ref (pick ()) in
    while !dst = src do
      dst := pick ()
    done;
    let lo = Random.State.int st 40 - 15 in
    let hi =
      if Random.State.bool st then Some (lo + Random.State.int st 30) else None
    in
    { Condition.src; dst = !dst; lo; hi }
  in
  let inc = Stn_inc.create events in
  let stack = ref [] in
  for step = 1 to 400 do
    (if (!stack = [] || Random.State.int st 3 > 0) && Stn_inc.consistent inc
     then begin
       let phi = random_interval () in
       ignore (Stn_inc.push inc phi);
       stack := phi :: !stack
     end
     else if !stack <> [] then begin
       Stn_inc.pop inc;
       stack := List.tl !stack
     end);
    let fresh = Stn_inc.create events in
    List.iter
      (fun phi -> if Stn_inc.consistent fresh then ignore (Stn_inc.push fresh phi))
      (List.rev !stack);
    check_bool
      (Printf.sprintf "consistency agrees at step %d (depth %d)" step
         (List.length !stack))
      (Stn_inc.consistent fresh) (Stn_inc.consistent inc);
    if Stn_inc.consistent inc then
      List.iter
        (fun e ->
          Alcotest.(check (pair int (option int)))
            (Printf.sprintf "window of %s agrees at step %d" e step)
            (window fresh e) (window inc e))
        events
  done

(* The distance accessor reads the closure itself: after every push and
   pop of a random interleaving, each entry, the origin's row and column
   included, equals the Floyd–Warshall closure of [Stn] over the live
   stack. [Stn]'s own origin is not an event, so an explicit one pinned at
   0 (sorting after the E's, at index n like the incremental origin)
   stands in for it. *)
let test_distance_matches_batch () =
  let st = Random.State.make [| 1312 |] in
  let events = List.init 6 (fun i -> Printf.sprintf "E%d" i) in
  let n = List.length events in
  let origin = "O" in
  let random_interval () =
    let pick () = List.nth events (Random.State.int st n) in
    let src = pick () in
    let dst = ref (pick ()) in
    while !dst = src do
      dst := pick ()
    done;
    let lo = Random.State.int st 40 - 15 in
    let hi =
      if Random.State.bool st then Some (lo + Random.State.int st 30) else None
    in
    { Condition.src; dst = !dst; lo; hi }
  in
  let inc = Stn_inc.create events in
  let stack = ref [] in
  let compared = ref 0 in
  for step = 1 to 300 do
    (if (!stack = [] || Random.State.int st 3 > 0) && Stn_inc.consistent inc
     then begin
       let phi = random_interval () in
       ignore (Stn_inc.push inc phi);
       stack := phi :: !stack
     end
     else if !stack <> [] then begin
       Stn_inc.pop inc;
       stack := List.tl !stack
     end);
    if Stn_inc.consistent inc then begin
      incr compared;
      let batch =
        Stn.of_intervals ~events ~absolute:[ (origin, 0, 0) ] (List.rev !stack)
      in
      let m = Stn.distance_matrix batch (Array.of_list (events @ [ origin ])) in
      for i = 0 to n do
        for j = 0 to n do
          check_int
            (Printf.sprintf "d(%d, %d) at step %d (depth %d)" i j step
               (List.length !stack))
            m.(i).(j) (Stn_inc.distance inc i j)
        done
      done
    end
  done;
  check_bool "compared on most steps" true (!compared > 150)

(* Closure windows are tight: pinning an event at either end of its window
   keeps the network (over the non-negative time domain) consistent, and
   pinning it just outside breaks it. *)
let prop_window_tight =
  QCheck.Test.make ~name:"closure windows are tight unary projections"
    ~count:200 (Gen.intervals ()) (fun phis ->
      let events =
        Events.Event.Set.elements (Condition.interval_events phis)
      in
      let inc = Stn_inc.create events in
      if not (List.for_all (fun phi -> Stn_inc.push inc phi) phis) then
        QCheck.assume_fail ()
      else begin
        let big = 1_000_000_000 in
        let pinned e v =
          let absolute =
            (e, v, v) :: List.map (fun e' -> (e', 0, big)) events
          in
          Stn.consistent (Stn.of_intervals ~events ~absolute phis)
        in
        List.for_all
          (fun e ->
            let lo, hi = window inc e in
            pinned e lo
            && (lo = 0 || not (pinned e (lo - 1)))
            && match hi with
               | None -> true
               | Some h -> pinned e h && not (pinned e (h + 1)))
          events
      end)

(* A copy shares nothing mutable with its source: the bnb search copies one
   prepared base closure per search and per worker domain, and a push or
   pop on any copy must leave the base (and every other copy) untouched. *)
let test_copy_independent () =
  let events = [ "A"; "B"; "C"; "D" ] in
  let windows inc = List.map (window inc) events in
  let base = Stn_inc.create events in
  ignore (Stn_inc.push base (Condition.interval ~lo:2 ~hi:10 "A" "B"));
  ignore (Stn_inc.push base (Condition.interval ~lo:1 ~hi:4 "B" "C"));
  let before = windows base in
  let copy = Stn_inc.copy base in
  check_int "copy keeps the depth" 2 (Stn_inc.depth copy);
  check_bool "copy starts with the same windows" true (windows copy = before);
  check_bool "copy: tightening push" true
    (Stn_inc.push copy (Condition.interval ~lo:0 ~hi:3 "C" "D"));
  check_bool "copy: second tightening push" true
    (Stn_inc.push copy (Condition.interval ~lo:6 "A" "D"));
  check_bool "the copy's windows moved" true (windows copy <> before);
  check_bool "base untouched by the copy's pushes" true (windows base = before);
  check_int "base depth untouched" 2 (Stn_inc.depth base);
  check_bool "copy: contradicting push" false
    (Stn_inc.push copy (Condition.interval ~lo:1 "D" "A"));
  check_bool "base still consistent" true (Stn_inc.consistent base);
  Stn_inc.pop copy;
  Stn_inc.pop copy;
  Stn_inc.pop copy;
  (* popping below the copy's starting depth undoes the shared frames on
     the copy only *)
  Stn_inc.pop copy;
  check_int "copy popped past its origin" 1 (Stn_inc.depth copy);
  check_bool "base untouched by the copy's pops" true (windows base = before);
  let again = Stn_inc.copy base in
  ignore (Stn_inc.push base (Condition.interval ~lo:7 ~hi:7 "A" "D"));
  check_bool "the base's windows moved" true (windows base <> before);
  check_bool "a copy is untouched by the base's pushes" true
    (windows again = before);
  Stn_inc.pop base;
  check_bool "base restored" true (windows base = before)

let suite =
  ( "stn_inc",
    [
      Alcotest.test_case "push/pop basics" `Quick test_push_pop_basic;
      Alcotest.test_case "copy is independent" `Quick test_copy_independent;
      Alcotest.test_case "inconsistent state discipline" `Quick
        test_push_while_inconsistent_raises;
      Alcotest.test_case "unknown event" `Quick test_unknown_event;
      Alcotest.test_case "solution extraction" `Quick test_solution;
      Alcotest.test_case "push/pop stress interleavings" `Quick
        test_push_pop_stress;
      Alcotest.test_case "distance = batch closure under push/pop" `Quick
        test_distance_matches_batch;
      Alcotest.test_case "extreme bounds saturate" `Quick
        test_extreme_bounds_no_wrap;
      Gen.qt prop_matches_batch;
      Gen.qt prop_pop_restores;
      Gen.qt prop_window_tight;
    ] )
