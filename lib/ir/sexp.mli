(** Minimal S-expressions: the concrete syntax of the on-disk graph and
    relation format ({!Serial}). *)

type t = Atom of string | List of t list

val atom : string -> t
val list : t list -> t

val to_string : t -> string
(** Pretty-printed with indentation. The bytes are those
    [Format.asprintf] writes, at its default margin of 78 and maximum
    indentation of 68, when an atom is printed as a string, quoted with
    [%S] when it is empty or holds a space, tab, newline, carriage
    return, parenthesis, double quote or semicolon, and a list as
    [@[<hov 1>(%a)@]] with [Format.pp_print_space] between its items. A
    list shorter than the room left on its line stays on it (77 bytes
    at the start of a line); any other breaks its line before an item
    that would not fit and indents the next line one column past its
    opening parenthesis.

    These bytes are a contract: section digests, certificate bundle
    ids, the payloads the certificate cache stores and the pinned
    SHA-256 of every zoo bundle are computed over them, so changing
    the layout is a schema change. *)

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
    the recursion of parsing and of printing what was parsed. The input
    is read once, from the start: the [Error] names its first fault,
    and the work and memory spent on malformed input stop there. *)
