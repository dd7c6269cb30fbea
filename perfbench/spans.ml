(* Spans of the traced runs: name, start, end, parent span and request
   id, kept in memory and written out when the run ends. Layer tables are
   read off them: a span's self time is its duration minus its
   children's. *)

type t = {
  names : string array;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
}

let create names =
  let a () = Array.make 65536 0 in
  { names; n = 0; name = a (); start = a (); stop = a (); parent = a (); req = a () }

let grow t =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.req <- g t.req

(* [run t ~name ~parent ~req f] records [f ()] as span [name] (an index
   into [names]); [f] receives the new span's id, the parent of its
   children. [parent] is -1 for a root. *)
let run t ~name ~parent ~req f =
  if t.n = Array.length t.name then grow t;
  let id = t.n in
  t.n <- t.n + 1;
  t.name.(id) <- name;
  t.parent.(id) <- parent;
  t.req.(id) <- req;
  t.start.(id) <- Stats.now_ns ();
  let v = f id in
  t.stop.(id) <- Stats.now_ns ();
  v

(* Self time in ns, summed per group of the span's request and per span
   name: [(self_ns t ~groups ~group).(g).(name)]. *)
let self_ns ?(groups = 1) ?(group = fun _ -> 0) t =
  let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  let sums = Array.init groups (fun _ -> Array.make (Array.length t.names) 0) in
  for i = 0 to t.n - 1 do
    let g = sums.(group t.req.(i)) in
    g.(t.name.(i)) <- g.(t.name.(i)) + self.(i)
  done;
  sums

(* One line per span: id, name, start and end (ns, monotonic), parent id
   (-1 for a root), request id. *)
let write t path =
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.names.(t.name.(i)) t.start.(i) t.stop.(i)
          t.parent.(i) t.req.(i)
      done)
