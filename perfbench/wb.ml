(* Workload runner of the repository benchmark; `perfbench/run.py` drives it.

     wb.exe load    --port P --server-pid PID --seed N --seconds S
                    [--ladder 0|1 --records FILE --access-log FILE]
     wb.exe detect  --seed N --seconds S [--trace 1 --spans FILE]
     wb.exe explain --seed N --seconds S [--trace 1 --spans FILE]

   Each prints one JSON object on its last stdout line and exits 1 when an
   output check fails. *)

module J = Whynot.Report.Json

let args = Array.to_list Sys.argv |> List.tl |> List.tl

let flag name default =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: rest -> go rest
    | [] -> default
  in
  go args

let int_flag name default = int_of_string (flag name (string_of_int default))
let float_flag name default = float_of_string (flag name (string_of_float default))
let print_result fields = print_endline (J.to_string (J.Obj fields))

let load () =
  let ok =
    W_ingest.main
      {
        port = int_flag "port" 0;
        pid = int_flag "server-pid" 0;
        seed = int_flag "seed" 1;
        seconds = float_flag "seconds" 20.;
        ladder = int_flag "ladder" 1 = 1;
        records = flag "records" "";
        access_log = flag "access-log" "";
      }
  in
  if not ok then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "load" :: _ -> load ()
  | _ :: ("detect" | "explain" as w) :: _ ->
      let seed = int_flag "seed" 1 and seconds = float_flag "seconds" 20. in
      let trace = int_flag "trace" 0 = 1 and spans_path = flag "spans" "spans.tsv" in
      let ok, attempted, failed, metrics, facts =
        if w = "detect" then W_detect.run ~seed ~seconds ~trace ~spans_path
        else W_explain.run ~seed ~seconds ~trace ~spans_path
      in
      print_result
        ([ ("correct", J.Bool ok); ("attempted", J.Int attempted); ("failed", J.Int failed) ]
        @ metrics @ facts);
      if not ok then exit 1
  | _ ->
      prerr_endline "usage: wb.exe (load|detect|explain) [--flag value ...]";
      exit 2
