(** A minimal JSON reader.

    The project deliberately carries no JSON dependency; this parser
    exists so the [@trace-smoke] gate and the tests can validate that
    emitted traces actually parse, without trusting the writer that
    produced them. It accepts standard JSON (RFC 8259) except
    [\uXXXX] escapes of UTF-16 surrogates, which {!Jsonw} never
    emits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Error messages carry the offending byte offset. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] on missing keys and non-objects. *)
