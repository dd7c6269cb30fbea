module Event = Events.Event

type window = { atleast : Events.Time.t option; within : Events.Time.t option }

type t =
  | Event of Event.t
  | Seq of t list * window
  | And of t list * window

let compare_window w v =
  let c = Option.compare Int.compare w.atleast v.atleast in
  if c <> 0 then c else Option.compare Int.compare w.within v.within

let no_window = { atleast = None; within = None }
let window ?atleast ?within () = { atleast; within }
let event e = Event e
let seq ?atleast ?within ps = Seq (ps, { atleast; within })
let and_ ?atleast ?within ps = And (ps, { atleast; within })

let rec compare p q =
  match (p, q) with
  | Event a, Event b -> Event.compare a b
  | Event _, _ -> -1
  | _, Event _ -> 1
  | Seq (ps, w), Seq (qs, v) | And (ps, w), And (qs, v) ->
      let c = List.compare compare ps qs in
      if c <> 0 then c else compare_window w v
  | Seq _, And _ -> -1
  | And _, Seq _ -> 1

let equal p q = compare p q = 0

let rec events = function
  | Event e -> Event.Set.singleton e
  | Seq (ps, _) | And (ps, _) ->
      List.fold_left (fun acc p -> Event.Set.union acc (events p)) Event.Set.empty ps

let events_of_set ps =
  List.fold_left (fun acc p -> Event.Set.union acc (events p)) Event.Set.empty ps

let rec size = function
  | Event _ -> 1
  | Seq (ps, _) | And (ps, _) -> List.fold_left (fun acc p -> acc + size p) 1 ps

let rec depth = function
  | Event _ -> 1
  | Seq (ps, _) | And (ps, _) ->
      1 + List.fold_left (fun acc p -> Stdlib.max acc (depth p)) 0 ps

let rec count_and = function
  | Event _ -> 0
  | Seq (ps, _) -> List.fold_left (fun acc p -> acc + count_and p) 0 ps
  | And (ps, _) -> List.fold_left (fun acc p -> acc + count_and p) 1 ps

type shape = Simple | And_no_seq_inside | General

let rec has_seq = function
  | Event _ -> false
  | Seq _ -> true
  | And (ps, _) -> List.exists has_seq ps

let rec seq_inside_and = function
  | Event _ -> false
  | Seq (ps, _) -> List.exists seq_inside_and ps
  | And (ps, _) -> List.exists has_seq ps || List.exists seq_inside_and ps

let classify p =
  if count_and p = 0 then Simple
  else if seq_inside_and p then General
  else And_no_seq_inside

let classify_set ps =
  let join a b =
    match (a, b) with
    | General, _ | _, General -> General
    | And_no_seq_inside, _ | _, And_no_seq_inside -> And_no_seq_inside
    | Simple, Simple -> Simple
  in
  List.fold_left (fun acc p -> join acc (classify p)) Simple ps

type error =
  | Empty_composition
  | Inverted_window of Events.Time.t * Events.Time.t
  | Negative_bound of Events.Time.t
  | Bound_above_limit of Events.Time.t
  | Duplicate_event of Event.t

let pp_error ppf = function
  | Empty_composition -> Format.fprintf ppf "SEQ/AND with no sub-pattern"
  | Inverted_window (a, b) -> Format.fprintf ppf "ATLEAST %d WITHIN %d requires %d <= %d" a b a b
  | Negative_bound a -> Format.fprintf ppf "negative window bound %d" a
  | Bound_above_limit a ->
      Format.fprintf ppf "window bound %d exceeds the limit %d" a
        Events.Time.max_span
  | Duplicate_event e -> Format.fprintf ppf "event %a occurs twice in one pattern" Event.pp e

exception Invalid of error

let check_bound = function
  | Some a when a < 0 -> raise (Invalid (Negative_bound a))
  | Some a when a > Events.Time.max_span -> raise (Invalid (Bound_above_limit a))
  | Some _ | None -> ()

let check_window { atleast; within } =
  check_bound atleast;
  check_bound within;
  match (atleast, within) with
  | Some a, Some b when a > b -> raise (Invalid (Inverted_window (a, b)))
  | _ -> ()

(* A single scan collects seen events to reject duplicates within one
   pattern: a tuple binds each event once, so "E then E again" cannot be
   expressed (the paper's tuples have no duplicated events). A node's
   window is checked before its children, the children left to right.
   A pattern names a handful of events, and scanning a short list costs
   less than a tree's allocation; past [few] events a set takes over, so
   a REPEAT of thousands stays n log n. *)
let few = 16

type seen = {
  mutable count : int;
  mutable list : Event.t list;
  mutable set : Event.Set.t;
}

let rec mem e = function
  | [] -> false
  | x :: rest -> Event.equal x e || mem e rest

let see seen e =
  if seen.count < few then begin
    if mem e seen.list then raise (Invalid (Duplicate_event e));
    seen.list <- e :: seen.list
  end
  else begin
    if seen.count = few then seen.set <- Event.Set.of_list seen.list;
    if Event.Set.mem e seen.set then raise (Invalid (Duplicate_event e));
    seen.set <- Event.Set.add e seen.set
  end;
  seen.count <- seen.count + 1

let rec check seen = function
  | Event e -> see seen e
  | Seq (ps, w) | And (ps, w) -> (
      check_window w;
      match ps with
      | [] -> raise (Invalid Empty_composition)
      | _ -> check_all seen ps)

and check_all seen = function
  | [] -> ()
  | p :: rest ->
      check seen p;
      check_all seen rest

let validate p =
  match check { count = 0; list = []; set = Event.Set.empty } p with
  | () -> Ok ()
  | exception Invalid e -> Error e

let rec validate_set = function
  | [] -> Ok ()
  | p :: rest -> (
      match validate p with Ok () -> validate_set rest | Error _ as e -> e)

let pp_window ppf { atleast; within } =
  Option.iter (fun a -> Format.fprintf ppf " ATLEAST %d" a) atleast;
  Option.iter (fun b -> Format.fprintf ppf " WITHIN %d" b) within

let rec pp ppf = function
  | Event e -> Event.pp ppf e
  | Seq (ps, w) -> pp_composite ppf "SEQ" ps w
  | And (ps, w) -> pp_composite ppf "AND" ps w

and pp_composite ppf kw ps w =
  Format.fprintf ppf "%s(%a)%a" kw
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
    ps pp_window w

let to_string p = Format.asprintf "%a" pp p
