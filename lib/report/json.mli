(** Minimal JSON values and serialization (no external dependency exists in
    the sealed environment). Output is deterministic: object fields keep
    insertion order, strings are escaped per RFC 8259, and only the integer
    and float shapes produced by this library are emitted. A small parser
    is included for round-trip testing and for tools consuming the CLI's
    [--json] output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize; [indent] > 0 pretty-prints with that step (default compact). *)

val add_string : Buffer.t -> string -> unit
(** Append a JSON string literal, quoted and escaped exactly as
    {!to_string} writes a [String], for writers that stream JSON into a
    buffer without building a tree. *)

val pp : Format.formatter -> t -> unit
(** Compact form. *)

val of_string : string -> (t, string) result
(** Parse a JSON document (numbers with '.', 'e' or 'E' become [Float],
    others [Int]). *)

val member : string -> t -> t option
(** Field of an object, [None] otherwise. *)

val to_int : t -> int option
val to_float : t -> float option
val to_list : t -> t list option
val to_string_opt : t -> string option
val to_bool : t -> bool option
