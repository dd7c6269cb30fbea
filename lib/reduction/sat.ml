module Tuple = Events.Tuple
module Ast = Pattern.Ast

type literal = { var : int; positive : bool }
type clause = literal list
type formula = { num_vars : int; clauses : clause list }

let eval assignment { clauses; _ } =
  List.for_all
    (List.exists (fun { var; positive } -> assignment.(var) = positive))
    clauses

let brute_force formula =
  let n = formula.num_vars in
  let assignment = Array.make n false in
  let rec go var =
    if var = n then if eval assignment formula then Some (Array.copy assignment) else None
    else begin
      assignment.(var) <- false;
      match go (var + 1) with
      | Some _ as found -> found
      | None ->
          assignment.(var) <- true;
          go (var + 1)
    end
  in
  go 0

let random_3sat prng ~num_vars ~num_clauses =
  if num_vars < 3 then invalid_arg "Sat.random_3sat: need at least 3 variables";
  let clause () =
    let vars = Array.init num_vars Fun.id in
    Numeric.Prng.shuffle prng vars;
    List.init 3 (fun i -> { var = vars.(i); positive = Numeric.Prng.bool prng })
  in
  { num_vars; clauses = List.init num_clauses (fun _ -> clause ()) }

let clause_event i = Printf.sprintf "C%d" i
let pos_event j = Printf.sprintf "X%d" j
let neg_event j = Printf.sprintf "NX%d" j
let literal_event { var; positive } = if positive then pos_event var else neg_event var

let to_patterns { num_vars; clauses } =
  let variable_gadget j =
    (* SEQ(C0, AND(Xj, NXj) ATLEAST 1 WITHIN 1) ATLEAST 3 WITHIN 3 *)
    Ast.seq ~atleast:3 ~within:3
      [
        Ast.event (clause_event 0);
        Ast.and_ ~atleast:1 ~within:1 [ Ast.event (pos_event j); Ast.event (neg_event j) ];
      ]
  in
  let clause_gadget i c =
    (* SEQ(Ci, AND(Xi1, Xi2, Xi3)) ATLEAST 2 WITHIN 2 *)
    Ast.seq ~atleast:2 ~within:2
      [
        Ast.event (clause_event (i + 1));
        Ast.and_ (List.map (fun l -> Ast.event (literal_event l)) c);
      ]
  in
  let anchor_gadget i =
    (* SEQ(C0, Ci) ATLEAST 1 WITHIN 1 *)
    Ast.seq ~atleast:1 ~within:1
      [ Ast.event (clause_event 0); Ast.event (clause_event (i + 1)) ]
  in
  List.init num_vars variable_gadget
  @ List.mapi clause_gadget clauses
  @ List.init (List.length clauses) anchor_gadget

let assignment_of_witness { num_vars; _ } tuple =
  match Tuple.find_opt tuple (clause_event 0) with
  | None -> None
  | Some c0 ->
      let rec go j acc =
        if j = num_vars then Some (Array.of_list (List.rev acc))
        else
          match Tuple.find_opt tuple (pos_event j) with
          | None -> None
          | Some xj -> go (j + 1) ((xj - c0 = 3) :: acc)
      in
      go 0 []
