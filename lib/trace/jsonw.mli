(** A minimal JSON writer and the shared schema envelope.

    Every machine-readable output of the project ([lint --json],
    [cache stats --json], the serve protocol's [describe] reply,
    Chrome traces, the bench result files) is built from these values,
    so there is one escaping-correct serializer and one envelope
    convention: every document is an object whose first field
    is ["schema"], valued ["entangle/<name>/<n>"], so consumers can
    dispatch on (and version-check) the shape before reading anything
    else. Bump [<n>] on any incompatible field change.

    The dual of {!Json} (the reader): [Json.parse (to_string v)]
    succeeds for every [v] that contains no {!Raw} fragment, and for
    [Raw] fragments that are themselves valid JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string
      (** spliced verbatim — for a number in a fixed format (the Chrome
          trace's [%g] arguments, the bench's fixed-precision times) *)

val to_string : t -> string
(** Compact (single-line) rendering; strings are escaped per RFC 8259.
    Non-finite floats render as [null]. *)

val schema : name:string -> version:int -> string
(** ["entangle/<name>/<version>"]. *)

val envelope : name:string -> version:int -> (string * t) list -> string
(** [to_string (Obj (("schema", Str (schema ~name ~version)) :: fields))]
    — the shared document shape. *)
