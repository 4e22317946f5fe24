(** Diagnostics emitted by the static-analysis passes.

    Every finding carries a severity, a stable error code (the "GRAPH",
    "LEMMA" and "EGRAPH" families, documented in DESIGN.md), a location
    naming the offending artifact, and a human-readable message. Two
    renderers are provided: a compiler-style pretty printer and a JSON
    encoder for tooling. *)

type severity = Error | Warning | Info

type location =
  | Graph of { graph : string; node : int option; tensor : string option }
      (** A computation graph, optionally narrowed to a node id and/or a
          tensor name. *)
  | Lemma of { lemma : string; rule : int option; seed : int option }
      (** A lemma of the registry, optionally narrowed to a rule index
          within the lemma and the random seed that exposed it. *)
  | Eclass of int  (** An e-class id. *)
  | Egraph  (** An e-graph as a whole. *)
  | Corpus  (** The lemma corpus as a whole. *)

type t = {
  severity : severity;
  code : string;
  loc : location;
  message : string;
}

val make : severity -> code:string -> location -> string -> t

val error : code:string -> location -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning : code:string -> location -> ('a, Format.formatter, unit, t) format4 -> 'a
val info : code:string -> location -> ('a, Format.formatter, unit, t) format4 -> 'a

val is_error : t -> bool
val count_errors : t list -> int
val count_warnings : t list -> int

val sort : t list -> t list
(** Errors first, then warnings, then infos; stable within a severity. *)

val pp : t Fmt.t
(** [error[GRAPH004] graph gpt-seq: cycle through node 3]. *)

val pp_report : t list Fmt.t
(** One diagnostic per line, sorted, followed by a summary line. *)

val to_json : t -> Entangle_trace.Jsonw.t
(** One diagnostic as a JSON object. *)

val report_to_json : t list -> Entangle_trace.Jsonw.t
(** [{"errors": n, "warnings": n, "diagnostics": [...]}]. *)
