module Trace = Events.Trace

let answers patterns trace =
  Trace.fold
    (fun id tuple acc ->
      if Pattern.Matcher.matches_set tuple patterns then id :: acc else acc)
    trace []
  |> List.rev

let non_answers patterns trace =
  Trace.fold
    (fun id tuple acc ->
      if Pattern.Matcher.matches_set tuple patterns then acc else id :: acc)
    trace []
  |> List.rev

type accuracy = { precision : float; recall : float; f_measure : float }

module S = Set.Make (String)

let accuracy ~truth ~found =
  let truth = S.of_list truth and found = S.of_list found in
  let inter = float_of_int (S.cardinal (S.inter truth found)) in
  let precision =
    if S.is_empty found then 1.0 else inter /. float_of_int (S.cardinal found)
  in
  let recall =
    if S.is_empty truth then 1.0 else inter /. float_of_int (S.cardinal truth)
  in
  let f_measure =
    if precision +. recall = 0.0 then 0.0
    else 2.0 *. precision *. recall /. (precision +. recall)
  in
  { precision; recall; f_measure }

let pp_accuracy ppf { precision; recall; f_measure } =
  Format.fprintf ppf "p=%.3f r=%.3f f=%.3f" precision recall f_measure

let explain_trace ?strategy ?engine ?solver ?max_cost patterns trace =
  let prepared =
    Explain.Modification.prepare_network (Tcn.Encode.pattern_set patterns)
  in
  let within_budget cost =
    match max_cost with None -> true | Some budget -> cost <= budget
  in
  Trace.map
    (fun _id tuple ->
      if Pattern.Matcher.matches_set tuple patterns then tuple
      else
        match
          Explain.Modification.explain_prepared ?strategy ?engine ?solver
            prepared tuple
        with
        | Some { repaired; cost; _ } when within_budget cost -> repaired
        | Some _ | None | (exception Invalid_argument _) -> tuple)
    trace
