(* Ingest traffic for `whynot serve`: keyed CSV lines
   [event,timestamp,tag,key] in batches, generated from a seed.

   Each client connection slot draws from its own stream over its own key
   set. A connection's requests are answered in order, so every key's
   events reach the server in the order they were generated, whatever the
   server does across connections (the sequential loop may serve a later
   request on one connection before an earlier one waiting on the other).
   That keeps every line valid and makes a per-key replay of what was sent
   an exact oracle for the match count. *)

module Prng = Whynot.Numeric.Prng

let query = "SEQ(E1, E2) WITHIN 20"

(* Keys per slot; two slots give a few hundred keys in all. *)
let keys_per_slot = 150

(* Zipf(1.1) over key ranks: a few hot keys carry most lines, which shows
   as imbalance between shards. *)
let zipf_cdf =
  let w = Array.init keys_per_slot (fun i -> 1. /. (float_of_int (i + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf prng =
  let u = Prng.float prng 1. in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if zipf_cdf.(mid) < u then find (mid + 1) hi else find lo mid
  in
  find 0 (keys_per_slot - 1)

(* E1 and E2 are 4% of lines each; the rest are types the query ignores,
   so matches stay a small share of lines. *)
let irrelevant = [| "X1"; "X2"; "X3"; "X4"; "X5"; "X6" |]

let event prng =
  let u = Prng.int prng 100 in
  if u < 4 then "E1" else if u < 8 then "E2" else irrelevant.(u mod 6)

type stream = {
  prng : Prng.t;
  slot : int;
  keys : string array;
  clocks : int array;  (** per key rank: the last timestamp sent *)
  mutable tag : int;
}

let stream ~seed ~slot =
  {
    prng = Prng.create ((seed * 7919) + (104729 * (slot + 1)));
    slot;
    keys = Array.init keys_per_slot (fun k -> Printf.sprintf "s%dk%d" slot k);
    clocks = Array.make keys_per_slot 0;
    tag = 0;
  }

(* [n] lines; per key, timestamps advance by 1..8. *)
let batch st n =
  let b = Buffer.create (n * 22) in
  for _ = 1 to n do
    let k = zipf st.prng in
    st.clocks.(k) <- st.clocks.(k) + 1 + Prng.int st.prng 8;
    st.tag <- st.tag + 1;
    Buffer.add_string b (event st.prng);
    Buffer.add_char b ',';
    Buffer.add_string b (string_of_int st.clocks.(k));
    Buffer.add_string b ",t";
    Buffer.add_string b (string_of_int st.slot);
    Buffer.add_char b '.';
    Buffer.add_string b (string_of_int st.tag);
    Buffer.add_char b ',';
    Buffer.add_string b st.keys.(k);
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

(* Batch sizes: a seeded mix of small (1-4 lines, 50%), medium (10-40,
   35%) and large (100-300, 15%) batches, about 40 lines on average, so
   per-request and per-line costs both weigh. *)
let batch_size prng =
  let u = Prng.int prng 20 in
  if u < 10 then Prng.int_in prng 1 4
  else if u < 17 then Prng.int_in prng 10 40
  else Prng.int_in prng 100 300

(* The oracle: one detector per key, fed every line of the applied
   batches in the order they were sent. Returns the match count. *)
let replay_matches bodies =
  let patterns =
    match Whynot.Pattern.Parse.pattern_set query with
    | Ok ps -> ps
    | Error e -> failwith e
  in
  let tpl = Whynot.Cep.Detector.template patterns in
  let detectors = Hashtbl.create 512 in
  let matches = ref 0 in
  List.iter
    (fun body ->
      List.iteri
        (fun i line ->
          match Whynot.Serve.Ingest.parse_line ~lineno:(i + 1) line with
          | Ok None -> ()
          | Error e -> failwith (Whynot.Serve.Ingest.error_to_string e)
          | Ok (Some { instance; key }) ->
              let d =
                match Hashtbl.find_opt detectors key with
                | Some d -> d
                | None ->
                    let d = Whynot.Cep.Detector.of_template tpl in
                    Hashtbl.add detectors key d;
                    d
              in
              matches :=
                !matches + List.length (Whynot.Cep.Detector.feed d instance))
        (String.split_on_char '\n' body))
    bodies;
  !matches
