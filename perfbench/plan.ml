(* The benchmark's operation lists, the known answer of every
   operation, and the seeded order of every pass. Known answers come
   from the paper (every zoo model refines, Table 3's nine bugs are all
   detected), never from the checker under test. *)

open Entangle_models

type zoo = { label : string; build : unit -> Instance.t }

(* The 17 zoo entries of cold-search: every model family, and for the
   transformer families the parallelism degrees and layer counts of the
   paper's Figure 4 sweep. *)
let zoo =
  let gpt d l =
    {
      label = Printf.sprintf "gpt-d%dl%d" d l;
      build = (fun () -> Gpt.build ~degree:d ~layers:l ());
    }
  in
  let llama d l =
    {
      label = Printf.sprintf "llama-d%dl%d" d l;
      build = (fun () -> Llama.build ~degree:d ~layers:l ());
    }
  in
  let qwen2 d l =
    {
      label = Printf.sprintf "qwen2-d%dl%d" d l;
      build = (fun () -> Qwen2.build ~degree:d ~layers:l ());
    }
  in
  [
    gpt 2 1; gpt 4 1; gpt 4 2; gpt 8 2; gpt 8 4;
    llama 2 1; llama 4 2; llama 8 2;
    qwen2 2 1; qwen2 4 2;
    { label = "moe-d2"; build = (fun () -> Moe.build ~degree:2 ()) };
    { label = "moe-d4"; build = (fun () -> Moe.build ~degree:4 ()) };
    { label = "moe-bwd-d2"; build = (fun () -> Moe.build_backward ~degree:2 ()) };
    { label = "regression"; build = (fun () -> Regression.build ()) };
    { label = "linear-bwd"; build = (fun () -> Train.linear_backward ()) };
    { label = "dp"; build = (fun () -> Train.data_parallel ()) };
    { label = "pipeline"; build = (fun () -> Train.pipeline ()) };
  ]

let bug_ids = [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

(* The daemon's share of the zoo: everything but the three largest
   entries, so the per-request costs (graph re-parse, bundle export,
   minimal verifier) are not drowned by the check itself. *)
let served_zoo =
  List.filter
    (fun z -> not (List.mem z.label [ "gpt-d8l2"; "gpt-d8l4"; "llama-d8l2" ]))
    zoo

(* Three bugs whose daemon check ends in a refinement failure. The
   expectation cases 5, 8 and 9 cannot be served: the protocol carries
   no expectation. *)
let served_bug_ids = [ 1; 2; 6 ]

type op =
  | Verify of zoo  (** check, report, then concrete certificate replay *)
  | Localize of int  (** [Bugs.run] on one case-study bug *)
  | Remote_check of zoo
  | Remote_bug of int  (** a daemon [check] of a bug's graphs *)
  | Cert_fetch of zoo  (** fetch, then verify with the minimal verifier *)
  | Cert_push of zoo  (** push the bundle fetched during set-up *)

(* The answer each operation must produce. *)
type answer =
  | Refines  (** refines, and the certificate replays on concrete data *)
  | Detected  (** [Bugs.run] reports the bug *)
  | Verdict of string  (** the daemon's verdict tag *)
  | Verified  (** the bundle passes the client's minimal verifier *)
  | Accepted  (** the daemon accepts the pushed bundle *)

let answer = function
  | Verify _ -> Refines
  | Localize _ -> Detected
  | Remote_check _ -> Verdict "refines"
  | Remote_bug _ -> Verdict "unmapped"
  | Cert_fetch _ -> Verified
  | Cert_push _ -> Accepted

let op_name = function
  | Verify z -> "verify:" ^ z.label
  | Localize n -> Printf.sprintf "localize:bug%d" n
  | Remote_check z -> "check:" ^ z.label
  | Remote_bug n -> Printf.sprintf "check:bug%d" n
  | Cert_fetch z -> "cert-fetch:" ^ z.label
  | Cert_push z -> "cert-push:" ^ z.label

type workload = Cold_search | Serve_mixed

let workloads = [ ("cold-search", Cold_search); ("serve-mixed", Serve_mixed) ]
let default_seed = 1

let ops = function
  | Cold_search ->
      List.map (fun z -> Verify z) zoo @ List.map (fun n -> Localize n) bug_ids
  | Serve_mixed ->
      List.map (fun z -> Remote_check z) served_zoo
      @ List.map (fun n -> Remote_bug n) served_bug_ids
      @ List.map (fun z -> Cert_fetch z) served_zoo
      @ List.map (fun z -> Cert_push z) served_zoo

(* The order of pass [pass] (0 is set-up's warm-up pass) over [n]
   operations: a Fisher-Yates shuffle drawn from a stream seeded by
   [seed] and [pass] alone, so a seed fixes every pass however many the
   run makes. *)
let order ~seed ~pass n =
  let rng = Random.State.make [| seed; pass |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
