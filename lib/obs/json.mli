(** Minimal JSON reader for the observability tooling.

    Matches the hand-rendered writers in {!Sink} and {!render};
    the repo carries no third-party JSON dependency.  Numbers are kept
    as floats (every numeric field we emit fits exactly). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised on malformed input and on type-mismatched accessors. *)

val parse : string -> t
(** Parse one complete JSON value; trailing garbage is an error. *)

val kind : t -> string
(** Constructor name, for error messages. *)

val member : string -> t -> t option
(** Field lookup; raises {!Parse_error} if the value is not an object. *)

val member_exn : string -> t -> t
(** Like {!member} but a missing key raises {!Parse_error}. *)

val to_num : t -> float
val to_int : t -> int
val to_str : t -> string
val to_arr : t -> t list
val to_obj : t -> (string * t) list

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control chars). *)

val float_string : float -> string
(** Shortest decimal form that {!parse} reads back to the same float;
    integers render without exponent or trailing [.]; non-finite
    values render as [null] (JSON has no Inf/NaN tokens). *)

val render : t -> string
(** Compact one-line rendering; [parse (render v)] round-trips every
    finite value. *)
