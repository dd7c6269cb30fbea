(* Prometheus text exposition (format 0.0.4) rendering of Obs snapshots.
   Everything here is pure string building — the serving layer decides when
   to snapshot and what HELP catalog to thread in. *)

let default_namespace = "whynot"

let mangle ?(namespace = default_namespace) name =
  let buf = Buffer.create (String.length name + String.length namespace + 1) in
  if not (String.equal namespace "") then begin
    Buffer.add_string buf namespace;
    Buffer.add_char buf '_'
  end;
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let span_suffix = "_seconds"
let span_max_suffix = "_max_seconds"

(* HELP payloads are raw UTF-8 with only backslash and newline escaped. *)
let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let help_of_markdown docs =
  (* The OBSERVABILITY.md catalogs are pipe tables whose first cell is the
     backtick-quoted dotted name and whose third cell is the meaning. The
     first row for a name wins; rows whose meaning cell is a separator
     (all dashes) are skipped. A scrape looks up every series, so the
     tables are parsed once, on the first lookup, and published through
     an Atomic: scrapes run on any HTTP worker domain, and a racing first
     lookup merely parses twice. *)
  let is_separator s =
    String.for_all (fun c -> c = '-' || c = ' ' || c = ':') s
  in
  let parse () =
    let rows = Hashtbl.create 256 in
    List.iter
      (fun line ->
        if String.length line > 0 && line.[0] = '|' then
          match
            String.split_on_char '|' line
            |> List.map String.trim
            |> List.filter (fun c -> not (String.equal c ""))
          with
          | c1 :: _kind :: c3 :: _
            when not (is_separator c3 || Hashtbl.mem rows c1) ->
              Hashtbl.add rows c1 c3
          | _ -> ())
      (String.split_on_char '\n' docs);
    rows
  in
  let table = Atomic.make None in
  fun name ->
    let rows =
      match Atomic.get table with
      | Some rows -> rows
      | None ->
          let rows = parse () in
          Atomic.set table (Some rows);
          rows
    in
    Hashtbl.find_opt rows ("`" ^ name ^ "`")

let fmt_seconds ns = Printf.sprintf "%.9g" (float_of_int ns /. 1e9)

let render ?namespace ?(timers = true) ?(help = fun _ -> None)
    (snap : Obs.snapshot) =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let header exposition kind source =
    let text = match help source with Some h -> h | None -> source in
    add (Printf.sprintf "# HELP %s %s\n" exposition (escape_help text));
    add (Printf.sprintf "# TYPE %s %s\n" exposition kind)
  in
  let scalar kind (name, v) =
    let e = mangle ?namespace name in
    header e kind name;
    add (Printf.sprintf "%s %d\n" e v)
  in
  List.iter (scalar "counter") snap.counters;
  List.iter (scalar "gauge") snap.gauges;
  List.iter
    (fun (name, (h : Obs.hist_snapshot)) ->
      let e = mangle ?namespace name in
      header e "histogram" name;
      let cum = ref 0 in
      List.iter
        (fun (bound, n) ->
          cum := !cum + n;
          let le =
            match bound with Some b -> string_of_int b | None -> "+Inf"
          in
          add (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" e le !cum))
        h.h_buckets;
      add (Printf.sprintf "%s_sum %d\n" e h.h_sum);
      add (Printf.sprintf "%s_count %d\n" e h.h_count))
    snap.histograms;
  if timers then
    List.iter
      (fun (name, (s : Obs.span_snapshot)) ->
        let e = mangle ?namespace name ^ span_suffix in
        header e "summary" name;
        add (Printf.sprintf "%s_sum %s\n" e (fmt_seconds s.total_ns));
        add (Printf.sprintf "%s_count %d\n" e s.s_count);
        let m = mangle ?namespace name ^ span_max_suffix in
        header m "gauge" name;
        add (Printf.sprintf "%s %s\n" m (fmt_seconds s.max_ns)))
      snap.spans;
  Buffer.contents buf

let parse_values text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        if String.equal line "" || line.[0] = '#' then go acc rest
        else
          (* Samples are `name[{labels}] value`; we render no timestamps, so
             the value is everything after the last space. *)
          match String.rindex_opt line ' ' with
          | None -> Error (Printf.sprintf "malformed sample line: %S" line)
          | Some i -> (
              let name = String.trim (String.sub line 0 i) in
              let v = String.sub line (i + 1) (String.length line - i - 1) in
              match float_of_string_opt v with
              | Some f -> go ((name, f) :: acc) rest
              | None ->
                  Error (Printf.sprintf "malformed sample value: %S" line)))
  in
  go [] (String.split_on_char '\n' text)
