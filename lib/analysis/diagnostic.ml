type severity = Error | Warning | Info

type location =
  | Graph of { graph : string; node : int option; tensor : string option }
  | Lemma of { lemma : string; rule : int option; seed : int option }
  | Eclass of int
  | Egraph
  | Corpus

type t = {
  severity : severity;
  code : string;
  loc : location;
  message : string;
}

let make severity ~code loc message = { severity; code; loc; message }

let error ~code loc fmt =
  Fmt.kstr (fun message -> make Error ~code loc message) fmt

let warning ~code loc fmt =
  Fmt.kstr (fun message -> make Warning ~code loc message) fmt

let info ~code loc fmt =
  Fmt.kstr (fun message -> make Info ~code loc message) fmt

let is_error d = d.severity = Error
let count_errors ds = List.length (List.filter is_error ds)

let count_warnings ds =
  List.length (List.filter (fun d -> d.severity = Warning) ds)

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let sort ds =
  List.stable_sort
    (fun a b -> compare (severity_rank a.severity) (severity_rank b.severity))
    ds

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_location ppf = function
  | Graph { graph; node; tensor } ->
      Fmt.pf ppf "graph %s" graph;
      Option.iter (Fmt.pf ppf "/node %d") node;
      Option.iter (Fmt.pf ppf "/tensor %s") tensor
  | Lemma { lemma; rule; seed } ->
      Fmt.pf ppf "lemma %s" lemma;
      Option.iter (Fmt.pf ppf "/rule %d") rule;
      Option.iter (Fmt.pf ppf " (seed %d)") seed
  | Eclass id -> Fmt.pf ppf "e-class %d" id
  | Egraph -> Fmt.string ppf "e-graph"
  | Corpus -> Fmt.string ppf "lemma corpus"

let pp ppf d =
  Fmt.pf ppf "%s[%s] %a: %s"
    (severity_to_string d.severity)
    d.code pp_location d.loc d.message

let pp_report ppf ds =
  let ds = sort ds in
  List.iter (fun d -> Fmt.pf ppf "%a@." pp d) ds;
  Fmt.pf ppf "%d error(s), %d warning(s)" (count_errors ds)
    (count_warnings ds)

(* --- JSON ------------------------------------------------------------- *)

module J = Entangle_trace.Jsonw

let opt name f = function None -> [] | Some v -> [ (name, f v) ]

let location_to_json = function
  | Graph { graph; node; tensor } ->
      J.Obj
        ([ ("kind", J.Str "graph"); ("graph", J.Str graph) ]
        @ opt "node" (fun i -> J.Int i) node
        @ opt "tensor" (fun s -> J.Str s) tensor)
  | Lemma { lemma; rule; seed } ->
      J.Obj
        ([ ("kind", J.Str "lemma"); ("lemma", J.Str lemma) ]
        @ opt "rule" (fun i -> J.Int i) rule
        @ opt "seed" (fun i -> J.Int i) seed)
  | Eclass id -> J.Obj [ ("kind", J.Str "eclass"); ("id", J.Int id) ]
  | Egraph -> J.Obj [ ("kind", J.Str "egraph") ]
  | Corpus -> J.Obj [ ("kind", J.Str "corpus") ]

let to_json d =
  J.Obj
    [
      ("severity", J.Str (severity_to_string d.severity));
      ("code", J.Str d.code);
      ("location", location_to_json d.loc);
      ("message", J.Str d.message);
    ]

let report_to_json ds =
  let ds = sort ds in
  J.Obj
    [
      ("errors", J.Int (count_errors ds));
      ("warnings", J.Int (count_warnings ds));
      ("diagnostics", J.Arr (List.map to_json ds));
    ]
