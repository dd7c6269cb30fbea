let out = ref print_string
let print s = !out s
let set f = out := f
let reset () = out := print_string

(* The log channel is separate from the report channel so structured log
   lines (Obs.Log) never interleave with machine-readable stdout output
   (JSON reports, JSONL match verdicts). The hook itself lives in Obs.Log
   (Obs cannot depend on Report without a module cycle); this is the
   embedder-facing surface for it. *)
let log = Obs.Log.write
