(** Minimal S-expressions: the concrete syntax of the on-disk graph and
    relation format ({!Serial}). *)

type t = Atom of string | List of t list

val atom : string -> t
val list : t list -> t

val to_string : t -> string
(** Pretty-printed with indentation. *)

val excerpt : t -> string
(** A single-line rendering of at most {!excerpt_bytes} bytes, followed
    by ["..."] when cut, for quoting a term in an error message. It
    stops at the bound, so it visits at most {!excerpt_bytes} atoms and
    lists whatever the term's size or depth. Equal to {!to_string} on a
    term that fits on one short line. *)

val excerpt_bytes : int
(** The bound of {!excerpt}: 200 bytes. *)

val max_depth : int
(** 1,000: the deepest list nesting {!of_string} accepts. The deepest
    S-expression this repository writes is an exported certificate
    bundle, 7 levels. *)

val of_string : string -> (t, string) result
(** Parses one S-expression; comments run from [;] to end of line.
    Atoms may be quoted with double quotes to include spaces. Input
    nesting lists deeper than {!max_depth} is an [Error], which bounds
    the recursion of parsing and of printing what was parsed. *)

val pp : t Fmt.t
