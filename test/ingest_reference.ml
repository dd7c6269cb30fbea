(* The ingest line parser and the match verdict's JSON as they were
   before the in-place scanner and the verdict writer: copies, kept as
   the reference that [Test_ingest] and [Test_serve] compare
   [Serve.Ingest.parse_line], [POST /ingest] and
   [Serve.Service.add_match] against. *)

open Whynot

type error = { line : int; reason : string }
type keyed = { instance : Cep.Detector.instance; key : string }

let header = "event,timestamp,tag"
let keyed_header = "event,timestamp,tag,key"

let parse_line ~lineno line =
  let trimmed = String.trim line in
  if String.equal trimmed "" then Ok None
    (* The header is skipped wherever it appears, not just on line 1: the
       serve ingest counts lines across requests, so a client re-sending
       its header in a second POST /ingest would otherwise be rejected
       with a spurious "bad timestamp". Nothing is lost — as a data line
       it could never parse ("timestamp" is not an integer). *)
  else if String.equal trimmed header || String.equal trimmed keyed_header then
    Ok None
  else
    let fail reason = Error { line = lineno; reason } in
    let instance e ts tag key =
      match int_of_string_opt (String.trim ts) with
      | None -> fail "bad timestamp"
      | Some timestamp ->
          if String.equal e "" then fail "empty event name"
          else
            let tag =
              if String.equal tag "" then Printf.sprintf "#%d" lineno else tag
            in
            Ok (Some { instance = { Cep.Detector.event = e; timestamp; tag }; key })
    in
    match Events.Csv_io.split_line trimmed with
    | Error reason -> fail reason
    | Ok [ e; ts ] -> instance e ts "" ""
    | Ok [ e; ts; tag ] -> instance e ts tag ""
    | Ok [ e; ts; tag; key ] -> instance e ts tag key
    | Ok _ -> fail "expected event,timestamp[,tag[,key]]"

let match_json ?request_id ~line (m : Cep.Detector.match_) =
  Report.Json.Obj
    (("type", Report.Json.String "match")
    :: ("line", Report.Json.Int line)
    :: (match request_id with
       | None -> []
       | Some id -> [ ("request_id", Report.Json.String id) ])
    @ [
        ( "tags",
          Report.Json.Obj
            (List.map (fun (e, tag) -> (e, Report.Json.String tag)) m.tags) );
        ( "timestamps",
          Report.Json.Obj
            (List.map
               (fun (e, ts) -> (e, Report.Json.Int ts))
               (Events.Tuple.bindings m.tuple)) );
      ])
