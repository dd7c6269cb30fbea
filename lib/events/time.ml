type t = int

let max_span = (max_int / 4) - 1

let of_hm s =
  match String.index_opt s ':' with
  | None -> invalid_arg (Printf.sprintf "Time.of_hm: missing ':' in %S" s)
  | Some i -> (
      let h = String.sub s 0 i and m = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt h, int_of_string_opt m) with
      | Some h, Some m when m >= 0 && m < 60 && h >= 0 -> (h * 60) + m
      | _ -> invalid_arg (Printf.sprintf "Time.of_hm: bad time %S" s))

let to_hm t = Printf.sprintf "%d:%02d" (t / 60) (t mod 60)
let pp = Format.pp_print_int
let pp_hm ppf t = Format.pp_print_string ppf (to_hm t)
