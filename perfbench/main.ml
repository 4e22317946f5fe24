(* Time to verdict, end to end and by layer.

     bash perfbench/run.sh --workload cold-search|serve-mixed \
       --seed N --seconds S --trace 0|1

   One process runs one workload on one domain as a closed loop: three
   rounds of set-up, each from scratch in its own directory under
   .perfbench/ (building the instances, opening a new store, starting
   the daemon, one untimed warm-up pass), then complete passes over the
   workload's operation list, each in the order the seed fixes, until
   the measuring time is spent. Every operation is checked against its
   known answer (Plan.answer) and against the workload's premise about
   the certificate cache. The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they
   are the per-layer split. Every run also writes a document with its
   metrics and every measured time under .perfbench/, and a traced run
   a Chrome trace. See perfbench/README.md. *)

open Entangle_ir
open Entangle_models
module Config = Entangle.Config
module Refine = Entangle.Refine
module Relation = Entangle.Relation
module Relation_io = Entangle.Relation_io
module Cache = Entangle_cache.Cache
module Store = Entangle_cache.Store
module Fingerprint = Entangle_fingerprint.Fingerprint
module Graph_check = Entangle_analysis.Graph_check
module Trace = Entangle_trace
module Sink = Trace.Sink
module Event = Trace.Event
module J = Trace.Jsonw
module P = Entangle_serve.Protocol
module Client = Entangle_serve.Client
module Server = Entangle_serve.Server
module CE = Entangle_certexport
open Perfbench

let now = Unix.gettimeofday
let allocated_mb () = Gc.allocated_bytes () /. 1e6

(* A run measures at least this many operations, so that at least ten
   lie beyond the verdict p90. *)
let min_samples = 100

(* Set-up runs this many times, each round from scratch, and reports
   the median round: a single round takes the host's slow episodes at
   full weight. *)
let setup_rounds = 3
let out_dir = ".perfbench"

(* --- arguments ---------------------------------------------------------- *)

type args = {
  workload : string * Plan.workload;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let usage =
    "main.exe --workload cold-search|serve-mixed --seed N --seconds S --trace \
     0|1"
  in
  let workload = ref "" and seed = ref Plan.default_seed in
  let seconds = ref 10 and trace = ref 0 in
  let bad msg =
    prerr_endline (msg ^ "\nusage: " ^ usage);
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, " the workload to run");
         ("--seed", Arg.Set_int seed, " the seed of the pass orders");
         ("--seconds", Arg.Set_int seconds, " the measuring time");
         ("--trace", Arg.Set_int trace, " 1 for the per-layer run");
       ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg -> bad msg);
  match List.assoc_opt !workload Plan.workloads with
  | Some w when !seconds >= 1 && (!trace = 0 || !trace = 1) ->
      {
        workload = (!workload, w);
        seed = !seed;
        seconds = float_of_int !seconds;
        trace = !trace = 1;
      }
  | _ -> bad "bad --workload, --seconds or --trace"

(* --- tracing ------------------------------------------------------------ *)

(* Whether the current pass is traced. Untraced passes collect nothing. *)
let traced = ref false

(* Harness spans and the checker's events from local checks; the
   daemon's events, emitted on its own thread, go to their own list. *)
let local_events = Trace.Collect.create ()
let server_events = Trace.Collect.create ()
let local_collect = Trace.Collect.sink local_events
let parents = ref []

(* A harness span: the operation id and the enclosing harness span go
   in the begin args; the allocation inside the span, and whatever
   [extra] derives from the result, go in the end args. *)
let span ?(extra = fun _ -> []) ~op name f =
  if not !traced then f ()
  else begin
    let parent = match !parents with p :: _ -> p | [] -> "pass" in
    Sink.span_begin local_collect ~cat:"bench" name
      ~args:[ ("op", Event.Int op); ("parent", Event.Str parent) ];
    parents := name :: !parents;
    let a0 = allocated_mb () in
    let end_span args =
      parents := List.tl !parents;
      Sink.span_end local_collect ~cat:"bench" name
        ~args:(("alloc_mb", Event.Float (allocated_mb () -. a0)) :: args)
    in
    match f () with
    | v ->
        end_span (extra v);
        v
    | exception e ->
        end_span [];
        raise e
  end

(* The checker events that decide each workload's premise. *)
type premise = {
  mutable hits : int;
  mutable misses : int;
  mutable replays_failed : int;
  mutable iterations : int;
}

let premise () = { hits = 0; misses = 0; replays_failed = 0; iterations = 0 }

let count p (ev : Event.t) =
  match (ev.cat, ev.name, ev.phase) with
  | "cache", "cache-hit", _ -> p.hits <- p.hits + 1
  | "cache", "cache-miss", _ -> p.misses <- p.misses + 1
  | "cache", "cache-replay-failed", _ -> p.replays_failed <- p.replays_failed + 1
  | "iteration", _, Event.End -> p.iterations <- p.iterations + 1
  | _ -> ()

let reset p =
  p.hits <- 0;
  p.misses <- 0;
  p.replays_failed <- 0;
  p.iterations <- 0

let local_premise = premise ()
let server_premise = premise ()

(* The checker already builds every event for its own statistics, so
   these sinks add one call per event. *)
let local_sink =
  Sink.make (fun ev ->
      count local_premise ev;
      if !traced then Sink.emit local_collect ev)

(* The daemon ends a request's span after writing the reply, which can
   be after the client has moved on: a span begun in a traced pass is
   kept open until it ends, whatever [traced] says by then. *)
let server_sink =
  let collect = Trace.Collect.sink server_events and depth = ref 0 in
  Sink.make (fun (ev : Event.t) ->
      count server_premise ev;
      match ev.phase with
      | Event.Begin when !traced ->
          incr depth;
          Sink.emit collect ev
      | Event.End when !depth > 0 ->
          decr depth;
          Sink.emit collect ev
      | Event.Counter | Event.Instant when !traced -> Sink.emit collect ev
      | _ -> ())

(* --- the run's state ---------------------------------------------------- *)

type prepared = {
  id : int;
  op : Plan.op;
  inst : Instance.t;  (** the graphs the operation checks *)
  case : Bugs.case option;
  mutable success : Refine.success option;
      (** traced runs: the result whose relation seeds the key probe and
          which the export probe packages *)
}

(* How a pass runs: [Traced] and [Plain] differ only in tracing;
   [Uncached] runs with the cache off (cold-search's traced run). *)
type kind = Plain | Traced | Uncached

type sample = {
  kind : kind;
  op_id : int;
  time_s : float;
  alloc_mb : float;
}

type daemon = { server : Server.t; thread : Thread.t; client : Client.t }

type run = {
  args : args;
  dir : string;
  mutable cache : Cache.t option;  (** the store of the latest set-up round *)
  mutable daemon : daemon option;
  bundles : (string, string) Hashtbl.t;
      (** zoo label to the bundle set-up fetched, which cert-push sends *)
  mutable ops : prepared array;
  mutable samples : sample list;
  mutable attempted : int;
  mutable failures : string list;
}

(* The namespace of a cold pass: one no earlier pass used. *)
let namespace run ~pass =
  match snd run.args.workload with
  | Plan.Cold_search -> Printf.sprintf "cold-%d" pass
  | Plan.Serve_mixed -> ""

let local_config run ~kind ~pass =
  Config.default
  |> Config.with_cache (if kind = Uncached then None else run.cache)
  |> Config.with_cache_namespace (namespace run ~pass)
  |> Config.with_trace local_sink

(* --- operations --------------------------------------------------------- *)

let ( let* ) = Result.bind

let local o ~config =
  match o.op with
  | Plan.Verify _ -> (
      let inst = o.inst in
      match span ~op:o.id "core.check" (fun () -> Instance.check ~config inst) with
      | Error f ->
          Error ("does not refine: " ^ Refine.verdict_to_string f.Refine.verdict)
      | Ok s -> (
          ignore (Entangle.Report.success_to_string inst.Instance.gs s);
          match
            span ~op:o.id "core.replay" (fun () ->
                Entangle.Certify.replay ~env:inst.Instance.env
                  ~gs:inst.Instance.gs ~gd:inst.Instance.gd
                  ~input_relation:inst.Instance.input_relation
                  ~output_relation:s.Refine.output_relation ())
          with
          | Ok () ->
              if !traced then o.success <- Some s;
              Ok ()
          | Error e -> Error ("certificate replay failed: " ^ e)))
  | Plan.Localize _ -> (
      match
        span ~op:o.id "core.check" (fun () -> Bugs.run ~config (Option.get o.case))
      with
      | Bugs.Detected _ -> Ok ()
      | Bugs.Missed -> Error "bug not detected")
  | _ -> invalid_arg "local: a daemon operation"

let check_options inst =
  {
    P.default_options with
    P.family = Some (Entangle_lemmas.Registry.family_name inst.Instance.family);
  }

(* What the CLI sends: the graphs and relation as s-expressions. *)
let graphs_request o =
  let inst = o.inst in
  let options = check_options inst in
  let gs = Serial.graph_to_sexp inst.Instance.gs in
  let gd = Serial.graph_to_sexp inst.Instance.gd in
  let relation = Relation_io.to_sexp inst.Instance.input_relation in
  match o.op with
  | Plan.Cert_fetch _ ->
      P.Cert_fetch
        {
          options;
          gs;
          gd;
          relation;
          env = Entangle.Cert_export.env_bindings inst.Instance.env;
        }
  | _ -> P.Check { options; gs; gd; relation }

let remote run o =
  let d = Option.get run.daemon in
  let request =
    match o.op with
    | Plan.Cert_push z ->
        P.Cert_push
          {
            bundle =
              Option.value (Hashtbl.find_opt run.bundles z.Plan.label) ~default:"";
          }
    | _ -> span ~op:o.id "ir.encode" (fun () -> graphs_request o)
  in
  let reply =
    span ~op:o.id "serve.roundtrip" (fun () -> Client.request d.client request)
  in
  let result =
    match (o.op, reply) with
    | _, Error e -> Error ("transport: " ^ Client.error_message e)
    | _, Ok (P.Error_reply { message; _ }) -> Error ("error reply: " ^ message)
    | (Plan.Remote_check _ | Plan.Remote_bug _), Ok (P.Checked r) -> (
        let want =
          match Plan.answer o.op with Plan.Verdict v -> v | _ -> assert false
        in
        if r.P.verdict <> want then
          Error (Printf.sprintf "verdict %s, expected %s" r.P.verdict want)
        else
          match (o.op, r.P.output_relation) with
          | Plan.Remote_bug _, _ -> Ok ()
          | _, None -> Error "refines without a certificate"
          | _, Some rel ->
              let inst = o.inst in
              let* rel =
                span ~op:o.id "ir.decode" (fun () ->
                    Relation_io.of_sexp ~gs:inst.Instance.gs ~gd:inst.Instance.gd rel)
              in
              if Relation.complete_for rel (Graph.outputs inst.Instance.gs) then Ok ()
              else Error "the certificate does not cover every output")
    | Plan.Cert_fetch z, Ok (P.Cert_bundle { bundle }) -> (
        (* what Verify.check_string does, in its two steps *)
        let parsed =
          span ~op:o.id "certexport.parse"
            ~extra:(fun _ ->
              [ ("kb", Event.Float (float_of_int (String.length bundle) /. 1e3)) ])
            (fun () -> CE.Bundle.of_string bundle)
        in
        match
          Result.bind parsed (fun b ->
              span ~op:o.id "certexport.verify" (fun () -> CE.Verify.check b))
        with
        | Ok _ ->
            if not (Hashtbl.mem run.bundles z.Plan.label) then
              Hashtbl.replace run.bundles z.Plan.label bundle;
            Ok ()
        | Error e -> Error ("bundle rejected: " ^ CE.Cert_error.to_string e))
    | Plan.Cert_push _, Ok (P.Cert_verdict_reply v) ->
        if v.P.accepted then Ok () else Error ("push rejected: " ^ v.P.cert_detail)
    | _, Ok _ -> Error "unexpected reply"
  in
  (request, reply, result)

(* --- probes (traced passes, outside the operation's timing) ------------- *)

(* The fixed per-check work on the operation's own inputs: the graph
   lint, the fingerprint environments, the cache context, and a key
   for every sequential operator with seeds rebuilt from the result's
   relation, as Refine.check derives them. *)
let probe_check run o ~(config : Config.t) =
  let inst = o.inst in
  let gs = inst.Instance.gs and gd = inst.Instance.gd in
  let config_fp =
    match config.Config.cache_namespace with
    | "" -> Config.search_fingerprint config
    | ns -> Config.search_fingerprint config ^ ";namespace=" ^ ns
  in
  span ~op:o.id "analysis.graph_check" (fun () ->
      ignore (Graph_check.check gs);
      ignore (Graph_check.check gd));
  span ~op:o.id "fingerprint.graph_env" (fun () ->
      ignore (Fingerprint.graph_env gs);
      ignore (Fingerprint.graph_env gd));
  let ctx =
    span ~op:o.id "cache.context" (fun () ->
        Cache.context (Option.get run.cache) ~config_fp ~whole_graph:false
          ~rules:(Entangle_lemmas.Registry.rules_for_model inst.Instance.family)
          ~gs ~gd)
  in
  match (ctx, o.success) with
  | Some ctx, Some s ->
      let bindings = Relation.bindings s.Refine.full_relation in
      span ~op:o.id "cache.key"
        ~extra:(fun n -> [ ("keys", Event.Int n) ])
        (fun () ->
          List.fold_left
            (fun n v ->
              let inputs = Node.inputs v in
              let seeds =
                List.filter
                  (fun (t, _) ->
                    List.exists (Tensor.equal t) inputs || Graph.is_input gs t)
                  bindings
              in
              ignore (Cache.key ctx ~seeds v);
              n + 1)
            0 (Graph.nodes gs))
      |> ignore
  | _ -> ()

(* The daemon's share: request and reply sizes, its decode of the
   request graphs, and the bundle export it does for cert-fetch. *)
let probe_wire o request reply =
  let kb s = Event.Float (float_of_int (String.length s) /. 1e3) in
  span ~op:o.id "serve.size"
    ~extra:(fun () ->
      ("request_kb", kb (P.request_to_string ~id:0 request))
      :: (match reply with
         | Ok r -> [ ("reply_kb", kb (P.response_to_string ~id:0 r)) ]
         | Error _ -> []))
    (fun () -> ());
  (match request with
  | P.Check { gs; gd; relation; _ } | P.Cert_fetch { gs; gd; relation; _ } ->
      span ~op:o.id "ir.decode" (fun () ->
          let* gs = Serial.graph_of_sexp gs in
          let* gd = Serial.graph_of_sexp gd in
          Relation_io.of_sexp ~gs ~gd relation)
      |> ignore
  | _ -> ());
  match (o.op, o.success) with
  | Plan.Cert_fetch _, Some s ->
      let inst = o.inst in
      span ~op:o.id "certexport.export" (fun () ->
          Entangle.Cert_export.bundle ~producer:"perfbench" ~gs:inst.Instance.gs
            ~gd:inst.Instance.gd ~env:inst.Instance.env
            ~input_relation:inst.Instance.input_relation s
          |> Result.map CE.Bundle.to_string)
      |> ignore
  | _ -> ()

(* --- passes ------------------------------------------------------------- *)

(* What a pass expects of the cache: cold passes search everything (no
   hit), the daemon's measured passes search nothing (no miss, no
   saturation iteration). *)
type expect = Cold | Warm | Any

let premise_error expect (p : premise) =
  match expect with
  | Cold when p.hits > 0 -> Some (Printf.sprintf "%d cache hits in a cold pass" p.hits)
  | Warm when p.misses + p.replays_failed + p.iterations > 0 ->
      Some
        (Printf.sprintf
           "searched in a warm pass: %d misses, %d failed replays, %d iterations"
           p.misses p.replays_failed p.iterations)
  | Cold | Warm | Any -> None

let fail run o msg =
  run.failures <- (Plan.op_name o.op ^ ": " ^ msg) :: run.failures

(* One operation: timed from call to verdict, then judged. *)
let run_op run ~kind ~pass ~expect ~record o =
  let config = local_config run ~kind ~pass in
  reset local_premise;
  reset server_premise;
  let a0 = allocated_mb () in
  let t0 = now () in
  let outcome =
    match o.op with
    | Plan.Verify _ | Plan.Localize _ -> `Local (local o ~config)
    | _ -> `Remote (remote run o)
  in
  let time_s = now () -. t0 in
  let alloc_mb = allocated_mb () -. a0 in
  run.attempted <- run.attempted + 1;
  let result, premise =
    match outcome with
    | `Local r -> (r, local_premise)
    | `Remote (_, _, r) -> (r, server_premise)
  in
  (match result with
  | Error msg -> fail run o msg
  | Ok () -> Option.iter (fail run o) (premise_error expect premise));
  if record then
    run.samples <- { kind; op_id = o.id; time_s; alloc_mb } :: run.samples;
  if !traced then begin
    (match o.op with
    | Plan.Cert_push _ -> ()
    | _ -> probe_check run o ~config);
    match outcome with
    | `Remote (request, reply, _) -> probe_wire o request reply
    | `Local _ -> ()
  end

let run_pass run ~kind ~pass ~expect ~record ~order =
  traced := kind = Traced;
  Array.iter (fun i -> run_op run ~kind ~pass ~expect ~record run.ops.(i)) order;
  traced := false

let seeded_pass run ~kind ~pass =
  let expect =
    match (kind, snd run.args.workload) with
    | Uncached, _ -> Any
    | _, Plan.Cold_search -> Cold
    | _, Plan.Serve_mixed -> Warm
  in
  run_pass run ~kind ~pass ~expect ~record:true
    ~order:(Plan.order ~seed:run.args.seed ~pass (Array.length run.ops))

(* --- set-up ------------------------------------------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* One build of every instance the operation list needs; zoo entries
   shared by several daemon requests are built once. *)
let build_ops ops =
  let zoo = Hashtbl.create 17 in
  let build (z : Plan.zoo) =
    match Hashtbl.find_opt zoo z.Plan.label with
    | Some inst -> inst
    | None ->
        let inst = span ~op:(-1) "models.build" z.Plan.build in
        Hashtbl.replace zoo z.Plan.label inst;
        inst
  in
  List.mapi
    (fun id op ->
      let inst, case =
        match op with
        | Plan.Verify z | Plan.Remote_check z | Plan.Cert_fetch z | Plan.Cert_push z
          ->
            (build z, None)
        | Plan.Localize n | Plan.Remote_bug n ->
            let case = span ~op:(-1) "models.build" (fun () -> Bugs.case n) in
            (case.Bugs.instance, Some case)
      in
      { id; op; inst; case; success = None })
    ops
  |> Array.of_list

let open_store dir =
  match
    Cache.create ~dir ~budget:{ Store.max_bytes = None; max_age_s = None } ()
  with
  | Ok c -> c
  | Error e -> failwith ("cannot open the store: " ^ e)

let start_daemon run ~dir =
  let socket = Filename.concat dir "d.sock" in
  let config = Config.default |> Config.with_trace server_sink in
  match Server.create ~config ?cache:run.cache ~socket () with
  | Error e -> failwith ("cannot start the daemon: " ^ Server.error_message e)
  | Ok server -> (
      let thread = Thread.create Server.run server in
      match Client.connect ~client:"perfbench" ~socket () with
      | Error e -> failwith ("cannot connect: " ^ Client.error_message e)
      | Ok client -> run.daemon <- Some { server; thread; client })

let stop_daemon run =
  Option.iter
    (fun d ->
      ignore (Client.shutdown d.client);
      Thread.join d.thread)
    run.daemon;
  run.daemon <- None

(* One round of set-up from scratch in [dir], timed: every instance
   built, a new store opened, the daemon started, and one untimed
   warm-up pass in the listed order, which fetches every bundle before
   its push and fills the daemon's store. Traced runs also trace the
   builds. *)
let setup_round run ~dir =
  let t0 = now () in
  traced := run.args.trace;
  run.ops <- build_ops (Plan.ops (snd run.args.workload));
  traced := false;
  Sys.mkdir dir 0o700;
  run.cache <- Some (open_store (Filename.concat dir "store"));
  Hashtbl.reset run.bundles;
  let expect =
    match snd run.args.workload with
    | Plan.Cold_search -> Cold
    | Plan.Serve_mixed ->
        start_daemon run ~dir;
        Any
  in
  run_pass run ~kind:Plain ~pass:0 ~expect ~record:false
    ~order:(Array.init (Array.length run.ops) Fun.id);
  now () -. t0

(* Every round's time. The last round's store and daemon serve the
   measured passes; the others are stopped and removed, untimed. *)
let setup run =
  List.init setup_rounds (fun round ->
      let dir = Printf.sprintf "%s/round-%d" run.dir round in
      let s = setup_round run ~dir in
      if round < setup_rounds - 1 then begin
        stop_daemon run;
        rm_rf dir
      end;
      s)

(* Traced serve-mixed runs: the local result the export and key probes
   start from, read back from the store the warm-up round filled. *)
let prepare_probes run =
  if run.args.trace && snd run.args.workload = Plan.Serve_mixed then
    let config = Config.default |> Config.with_cache run.cache in
    Array.iter
      (fun o ->
        match o.op with
        | Plan.Remote_check _ | Plan.Cert_fetch _ -> (
            match Instance.check ~config o.inst with
            | Ok s -> o.success <- Some s
            | Error _ -> fail run o "the local probe check does not refine")
        | _ -> ())
      run.ops

(* --- reports ------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let samples_of run kind = List.filter (fun s -> s.kind = kind) run.samples

(* Each operation's times among [samples], oldest first, in operation
   order. *)
let repetitions run samples =
  Array.to_list
    (Array.map
       (fun o ->
         List.rev
           (List.filter_map
              (fun s -> if s.op_id = o.id then Some s.time_s else None)
              samples))
       run.ops)

(* Sum over operations of each one's fastest time among [samples]. *)
let pass_s run samples = Stats.fastest_pass (repetitions run samples)

let passes_of run kind =
  float_of_int (List.length (samples_of run kind)) /. float_of_int (Array.length run.ops)

let metric value unit = J.Obj [ ("value", J.Float value); ("unit", J.Str unit) ]

(* The verdict percentiles are taken over every measured operation. *)
let end_to_end run ~setup_s =
  let plain = samples_of run Plain in
  let ms = List.map (fun s -> s.time_s *. 1e3) plain in
  let alloc = List.fold_left (fun a s -> a +. s.alloc_mb) 0. plain in
  [
    ("setup_s", metric setup_s "s");
    ("pass_s", metric (pass_s run plain) "s");
    ("verdict_p50_ms", metric (Stats.harrell_davis 50. ms) "ms");
    ("verdict_p90_ms", metric (Stats.harrell_davis 90. ms) "ms");
    ("alloc_mb_per_op", metric (alloc /. float_of_int (List.length plain)) "MB");
    ("peak_rss_mb", metric (peak_rss_mb ()) "MiB");
  ]

let ratio a b = if b > 0. then a /. b else 0.

(* Per traced pass: harness spans and the checker's events from the
   local checks and the daemon, folded together. *)
let per_layer run ~timed_out =
  let passes = passes_of run Traced in
  let local = Trace.Collect.events local_events in
  let server = Trace.Collect.events server_events in
  let rows = [ Layers.fold local; Layers.fold server ] in
  let profiles = [ Trace.Profile.of_events local; Trace.Profile.of_events server ] in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0. in
  let span ~cat name f = sum (fun t -> f (Layers.find t ~cat name)) rows in
  let count f = sum (fun p -> float_of_int (f p)) profiles in
  let phase name =
    sum
      (fun (p : Trace.Profile.t) ->
        sum
          (fun (r : Trace.Profile.row) -> if r.label = name then r.total_s else 0.)
          p.Trace.Profile.phases)
      profiles
  in
  let per_pass name x unit = (name, metric (x /. passes) unit) in
  let bench name = Layers.find (List.hd rows) ~cat:"bench" name in
  (* a call the harness wraps: its time and allocation *)
  let wrapped name =
    let r = bench name in
    [
      per_pass (name ^ "_s") r.Layers.total_s "s";
      per_pass (name ^ "_alloc_mb") (Layers.sum r "alloc_mb") "MB";
    ]
  in
  let hits = count (fun p -> p.Trace.Profile.cache_hits) in
  let misses = count (fun p -> p.Trace.Profile.cache_misses) in
  let lookups = hits +. misses +. count (fun p -> p.Trace.Profile.cache_replays_failed) in
  let matches = count (fun p -> p.Trace.Profile.matches) in
  let unions = count (fun p -> p.Trace.Profile.unions) in
  let dispatch =
    Layers.clipped_s
      ~outer:(Layers.intervals local ~cat:"bench" ~name:"serve.roundtrip")
      (Layers.intervals server ~cat:"serve" ~name:"")
  in
  let plain_pass = pass_s run (samples_of run Plain) in
  let builds = bench "models.build" in
  let per_build x = x /. float_of_int setup_rounds in
  [
    ("models.build_s", metric (per_build builds.Layers.total_s) "s");
    ("models.build_alloc_mb", metric (per_build (Layers.sum builds "alloc_mb")) "MB");
  ]
  @ wrapped "analysis.graph_check"
  @ wrapped "fingerprint.graph_env"
  @ wrapped "cache.context"
  @ wrapped "cache.key"
  @ [
      per_pass "cache.keys" (Layers.sum (bench "cache.key") "keys") "count";
      per_pass "cache.lookup_s"
        (span ~cat:"cache" "cache-lookup" (fun r -> r.total_s))
        "s";
      per_pass "cache.hits" hits "count";
      per_pass "cache.misses" misses "count";
      ("cache.hit_ratio", metric (ratio hits lookups) "ratio");
      ( "cache.cold_overhead_s",
        metric
          (match samples_of run Uncached with
          | [] -> 0.
          | uncached -> plain_pass -. pass_s run uncached)
          "s" );
    ]
  @ wrapped "core.check"
  @ [
      per_pass "core.operators"
        (span ~cat:"operator" "*" (fun r -> float_of_int r.count))
        "count";
      per_pass "core.operator_self_s" (span ~cat:"operator" "*" (fun r -> r.self_s)) "s";
      per_pass "core.frontier_s" (phase "frontier") "s";
    ]
  @ wrapped "core.replay"
  @ [
      per_pass "egraph.saturate_s" (phase "saturate") "s";
      per_pass "egraph.iteration_s"
        (span ~cat:"iteration" "iteration" (fun r -> r.total_s))
        "s";
      per_pass "egraph.extract_s" (phase "extract") "s";
      per_pass "egraph.iterations" (count (fun p -> p.Trace.Profile.iterations)) "count";
      per_pass "egraph.matches" matches "count";
      per_pass "egraph.unions" unions "count";
      ("egraph.unions_per_match", metric (ratio unions matches) "ratio");
      ( "egraph.nodes_peak",
        metric
          (List.fold_left
             (fun acc (p : Trace.Profile.t) -> Float.max acc (float_of_int p.nodes_peak))
             0. profiles)
          "count" );
    ]
  @ wrapped "certexport.export"
  @ wrapped "certexport.parse"
  @ wrapped "certexport.verify"
  @ [ per_pass "certexport.bundle_kb" (Layers.sum (bench "certexport.parse") "kb") "kB" ]
  @ wrapped "ir.encode"
  @ wrapped "ir.decode"
  @ wrapped "serve.roundtrip"
  @ [
      per_pass "serve.dispatch_s" dispatch "s";
      per_pass "serve.wire_s" ((bench "serve.roundtrip").total_s -. dispatch) "s";
      per_pass "serve.request_kb" (Layers.sum (bench "serve.size") "request_kb") "kB";
      per_pass "serve.reply_kb" (Layers.sum (bench "serve.size") "reply_kb") "kB";
      per_pass "serve.timed_out" (float_of_int timed_out) "count";
      ( "trace.overhead_ratio",
        metric (ratio (pass_s run (samples_of run Traced)) plain_pass) "ratio" );
    ]

(* The run's documents, next to the last line of output: an envelope
   with the metrics, each set-up round's time, the number of measured
   operations and every operation's measured times, and for a traced
   run the Chrome trace of every collected event (the daemon's on
   track 2). *)
let write_documents run ~setup_rounds_s metrics =
  let name, _ = run.args.workload in
  let stem = Printf.sprintf "%s/%s-seed%d" out_dir name run.args.seed in
  let write path text =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
  in
  let plain = samples_of run Plain in
  let ops =
    List.map2
      (fun o times ->
        J.Obj
          [
            ("op", J.Str (Plan.op_name o.op));
            ("ms", J.Arr (List.map (fun t -> J.Float (t *. 1e3)) times));
          ])
      (Array.to_list run.ops) (repetitions run plain)
  in
  write (stem ^ ".json")
    (J.envelope ~name:"perfbench-run" ~version:1
       [
         ("workload", J.Str name);
         ("seed", J.Int run.args.seed);
         ("seconds", J.Float run.args.seconds);
         ("trace", J.Bool run.args.trace);
         ("cores", J.Int (Domain.recommended_domain_count ()));
         ("setup_rounds_s", J.Arr (List.map (fun s -> J.Float s) setup_rounds_s));
         ("measured_ops", J.Int (List.length plain));
         ("metrics", J.Obj metrics);
         ("ops", J.Arr ops);
       ]);
  if run.args.trace then
    Trace.Collect.events local_events
    @ List.map (fun (ev : Event.t) -> { ev with tid = 2 }) (Trace.Collect.events server_events)
    |> List.stable_sort (fun (a : Event.t) b -> Float.compare a.ts b.ts)
    |> Trace.Chrome.to_string
    |> write (stem ^ ".trace.json")

(* --- main --------------------------------------------------------------- *)

let () =
  let args = parse_args () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let dir = Printf.sprintf "%s/run-%d" out_dir (Unix.getpid ()) in
  rm_rf dir;
  Sys.mkdir dir 0o700;
  at_exit (fun () -> rm_rf dir);
  let run =
    {
      args;
      dir;
      cache = None;
      daemon = None;
      bundles = Hashtbl.create 16;
      ops = [||];
      samples = [];
      attempted = 0;
      failures = [];
    }
  in
  let setup_rounds_s = setup run in
  prepare_probes run;
  let timed_out0 =
    Option.fold ~none:0 ~some:(fun d -> (Server.stats d.server).P.timed_out) run.daemon
  in
  let kinds =
    match (args.trace, snd args.workload) with
    | false, _ -> [| Plain |]
    | true, Plan.Cold_search -> [| Traced; Plain; Uncached |]
    | true, Plan.Serve_mixed -> [| Traced; Plain |]
  in
  let t0 = now () in
  let pass = ref 1 in
  while
    now () -. t0 < args.seconds
    || ((not args.trace) && List.length (samples_of run Plain) < min_samples)
    || !pass <= Array.length kinds
  do
    seeded_pass run ~kind:kinds.((!pass - 1) mod Array.length kinds) ~pass:!pass;
    incr pass
  done;
  let timed_out =
    Option.fold ~none:0
      ~some:(fun d -> (Server.stats d.server).P.timed_out - timed_out0)
      run.daemon
  in
  stop_daemon run;
  let metrics =
    if args.trace then per_layer run ~timed_out
    else end_to_end run ~setup_s:(Stats.percentile 50. setup_rounds_s)
  in
  write_documents run ~setup_rounds_s metrics;
  let failed = List.length run.failures in
  List.iter (fun f -> prerr_endline ("FAILED " ^ f)) (List.rev run.failures);
  if not args.trace then
    Printf.eprintf
      "perfbench: verdict percentiles over %d operations in %.0f passes\n%!"
      (List.length (samples_of run Plain))
      (passes_of run Plain);
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0));
            ("attempted", J.Int run.attempted);
            ("failed", J.Int failed);
            ("metrics", J.Obj metrics);
          ]))
