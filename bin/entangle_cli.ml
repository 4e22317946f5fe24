(* Command-line interface: verify built-in models, reproduce the bug
   case studies, and inspect the lemma corpus. *)

open Cmdliner
open Entangle_models
module Trace = Entangle_trace
module Failpoint = Entangle_failpoint.Failpoint

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* --- shared output/diagnostics options ---------------------------------- *)

(* One term for the flags every subcommand shares, instead of the
   per-command copies that used to drift: verbosity, JSON output, and
   the diagnostics sinks (--trace streams Chrome trace events to a
   file, --profile collects events and prints a summary table). *)
module Output_opts = struct
  type t = {
    verbose : bool;
    json : bool;
    trace : string option;
    profile : bool;
    deadline : float option;
    op_deadline : float option;
    keep_going : bool;
    no_retries : bool;
    failpoints : string option;
    cache_dir : string option;
    no_cache : bool;
    cache_max_bytes : int option;
    cache_max_age_s : float option;
    remote : string option;
    remote_retries : int;
    remote_timeout_s : float option;
    namespace : string option;
  }

  let term =
    let verbose =
      let doc = "Print equality-saturation debug output." in
      Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
    in
    let json =
      let doc = "Emit machine-readable JSON where the command supports it." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let trace =
      let doc =
        "Write a Chrome trace-event JSON of the run to $(docv): \
         per-operator spans, per-iteration saturation counters, per-rule \
         hit events and e-graph growth samples. Load the file in \
         chrome://tracing or https://ui.perfetto.dev."
      in
      Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
    in
    let profile =
      let doc =
        "Collect trace events in memory and print a per-operator / \
         per-rule profile summary after the run."
      in
      Arg.(value & flag & info [ "profile" ] ~doc)
    in
    let deadline =
      let doc =
        "Wall-clock budget for the whole check, in seconds. Checked \
         cooperatively; exceeding it yields an inconclusive verdict (exit \
         2), never a hang."
      in
      Arg.(
        value
        & opt (some float) None
        & info [ "deadline" ] ~docv:"SECONDS" ~doc)
    in
    let op_deadline =
      let doc =
        "Wall-clock budget per operator attempt, in seconds (each \
         escalation retry gets a fresh allowance)."
      in
      Arg.(
        value
        & opt (some float) None
        & info [ "op-deadline" ] ~docv:"SECONDS" ~doc)
    in
    let keep_going =
      let doc =
        "Multi-fault localization: do not stop at the first failing \
         operator; bind its outputs to opaque placeholders, skip its \
         dependents, and report every independent fault in one run."
      in
      Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)
    in
    let no_retries =
      let doc =
        "Disable the escalation ladder: accept the first inconclusive \
         verdict instead of retrying with scaled budgets."
      in
      Arg.(value & flag & info [ "no-retries" ] ~doc)
    in
    let failpoints =
      let doc =
        "Arm fault-injection failpoints, e.g. \
         $(b,egraph.rebuild=nth:2,symbolic.decide=prob:0.1@7). Grammar: \
         $(i,name=nth:N|every:K|prob:P@SEED|off), comma-separated. The \
         ENTANGLE_FAILPOINTS environment variable is read too; this flag \
         takes precedence per failpoint. Injected faults surface as \
         internal-error verdicts (exit 3)."
      in
      Arg.(
        value
        & opt (some string) None
        & info [ "failpoints" ] ~docv:"SPEC" ~doc)
    in
    let cache_dir =
      let doc =
        "Directory of the persistent certificate cache (default:          $(b,\\$ENTANGLE_CACHE_DIR), else $(b,~/.cache/entangle))."
      in
      Arg.(
        value
        & opt (some string) None
        & info [ "cache-dir" ] ~docv:"DIR" ~doc)
    in
    let no_cache =
      let doc =
        "Disable the certificate cache: neither look up nor store          per-operator results. Restores the pre-cache behavior exactly."
      in
      Arg.(value & flag & info [ "no-cache" ] ~doc)
    in
    let cache_max_bytes =
      let doc =
        "Byte budget for the certificate cache: when the store grows \
         past $(docv), least-recently-used entries are evicted until it \
         fits (inclusive ceiling). Overrides \
         $(b,\\$ENTANGLE_CACHE_MAX_BYTES). Unset = unbounded."
      in
      Arg.(
        value
        & opt (some int) None
        & info [ "cache-max-bytes" ] ~docv:"BYTES" ~doc)
    in
    let cache_max_age_s =
      let doc =
        "Age bound for certificate-cache entries, in seconds since last \
         use: older entries are expired on lookup and at sweeps. \
         Overrides $(b,\\$ENTANGLE_CACHE_MAX_AGE_S). Unset = no age \
         bound."
      in
      Arg.(
        value
        & opt (some float) None
        & info [ "cache-max-age-s" ] ~docv:"SECONDS" ~doc)
    in
    let remote =
      let doc =
        "Run the check on the resident $(b,entangle serve) daemon \
         listening on the Unix-domain socket $(docv) instead of in this \
         process. Verdicts, reports, exit codes and statistics are \
         identical to a local run; the daemon keeps the lemma corpus \
         and certificate cache warm across invocations."
      in
      Arg.(
        value
        & opt (some string) None
        & info [ "remote" ] ~docv:"SOCKET" ~doc)
    in
    let remote_retries =
      let doc =
        "How many times a $(b,--remote) request is retried after a \
         transient failure (connection refused, daemon busy, I/O \
         timeout), with capped exponential backoff and deterministic \
         jitter between attempts. Non-idempotent requests ($(b,remote \
         clear), $(b,remote shutdown)) are never retried once sent."
      in
      Arg.(value & opt int 2 & info [ "remote-retries" ] ~docv:"N" ~doc)
    in
    let remote_timeout_s =
      let doc =
        "Per-attempt I/O deadline for $(b,--remote) requests, in \
         seconds: bounds the connect, the handshake and every frame \
         read/write. An expired deadline counts as a transient failure \
         for the retry ladder. Unset = wait indefinitely."
      in
      Arg.(
        value
        & opt (some float) None
        & info [ "remote-timeout-s" ] ~docv:"SECONDS" ~doc)
    in
    let namespace =
      let doc =
        "Certificate-cache namespace: checks under different namespaces \
         share a store (and its retention budget) but never observe \
         each other's entries. The empty default is the shared \
         namespace."
      in
      Arg.(
        value
        & opt (some string) None
        & info [ "namespace" ] ~docv:"NAME" ~doc)
    in
    let make verbose json trace profile deadline op_deadline keep_going
        no_retries failpoints cache_dir no_cache cache_max_bytes
        cache_max_age_s remote remote_retries remote_timeout_s namespace =
      {
        verbose;
        json;
        trace;
        profile;
        deadline;
        op_deadline;
        keep_going;
        no_retries;
        failpoints;
        cache_dir;
        no_cache;
        cache_max_bytes;
        cache_max_age_s;
        remote;
        remote_retries;
        remote_timeout_s;
        namespace;
      }
    in
    Term.(
      const make $ verbose $ json $ trace $ profile $ deadline $ op_deadline
      $ keep_going $ no_retries $ failpoints $ cache_dir $ no_cache
      $ cache_max_bytes $ cache_max_age_s $ remote
      $ remote_retries $ remote_timeout_s $ namespace)

  (* Set up the sinks the options ask for, run [f] with the combined
     sink, then finish the trace file and print the profile. The
     Chrome file is closed even when [f] raises, so a crashed run
     still leaves a loadable trace. *)
  let with_sink_armed o f =
    let collector = if o.profile then Some (Trace.Collect.create ()) else None in
    let chrome =
      Option.map
        (fun path ->
          let oc = open_out path in
          (path, oc, Trace.Chrome.create oc))
        o.trace
    in
    let sink =
      Trace.Sink.tee
        (match collector with
        | Some c -> Trace.Collect.sink c
        | None -> Trace.Sink.null)
        (match chrome with
        | Some (_, _, ch) -> Trace.Chrome.sink ch
        | None -> Trace.Sink.null)
    in
    let finally () =
      Option.iter
        (fun (path, oc, ch) ->
          Trace.Chrome.close ch;
          close_out oc;
          Fmt.pr "wrote trace %s (%d events)@." path (Trace.Chrome.event_count ch))
        chrome
    in
    Fun.protect ~finally (fun () ->
        let code = f sink in
        Option.iter
          (fun c ->
            Fmt.pr "@.%a@." Trace.Profile.pp
              (Trace.Profile.of_events (Trace.Collect.events c)))
          collector;
        code)

  let with_sink o f =
    setup_logs o.verbose;
    match
      match o.failpoints with
      | None -> Ok ()
      | Some spec -> Failpoint.activate_spec spec
    with
    | Error e ->
        Fmt.epr "bad --failpoints spec: %s@." e;
        124
    | Ok () -> with_sink_armed o f

  (* The store retention budget the options imply: flags override the
     ENTANGLE_CACHE_MAX_BYTES / ENTANGLE_CACHE_MAX_AGE_S environment. *)
  let budget o =
    let base = Entangle_cache.Store.env_budget () in
    {
      Entangle_cache.Store.max_bytes =
        (match o.cache_max_bytes with
        | Some _ as b -> b
        | None -> base.Entangle_cache.Store.max_bytes);
      max_age_s =
        (match o.cache_max_age_s with
        | Some _ as a -> a
        | None -> base.Entangle_cache.Store.max_age_s);
    }

  (* The checker configuration the options imply, on top of [base].
     The certificate cache is on by default for CLI runs (the library
     default stays off) but is force-disabled when failpoints are
     armed: a warm cache would skip the very searches the injected
     faults are meant to hit. *)
  let config ?(base = Entangle.Config.default) o sink =
    let cache =
      if o.no_cache || o.failpoints <> None then None
      else
        match
          Entangle_cache.Cache.create ?dir:o.cache_dir ~budget:(budget o) ()
        with
        | Ok c -> Some c
        | Error e ->
            Fmt.epr "warning: cannot open certificate cache (%s); running                      uncached@."
              e;
            None
    in
    base
    |> Entangle.Config.with_trace sink
    |> Entangle.Config.with_check_deadline o.deadline
    |> Entangle.Config.with_op_deadline o.op_deadline
    |> Entangle.Config.with_keep_going o.keep_going
    |> Entangle.Config.with_cache cache
    |> Entangle.Config.with_cache_namespace
         (Option.value o.namespace ~default:"")
    |> fun c ->
    if o.no_retries then Entangle.Config.with_escalation [] c else c
end

(* Exit-code convention shared by the checking subcommands (see
   Refine.exit_code): success / refinement failure / inconclusive /
   internal error must be distinguishable by scripts. *)
let verdict_exits =
  Cmd.Exit.info 0 ~doc:"the check succeeded (refinement holds)."
  :: Cmd.Exit.info 1
       ~doc:
         "refinement failure: some operator's output provably has no clean \
          mapping under the lemma corpus."
  :: Cmd.Exit.info 2
       ~doc:
         "inconclusive: a saturation budget or --deadline was exhausted \
          before a verdict; raise the limits or let escalation retry."
  :: Cmd.Exit.info 3
       ~doc:
         "internal checker error (caught and localized; includes injected \
          --failpoints faults and certificate-replay mismatches)."
  :: Cmd.Exit.defaults

(* Exit codes are cache-independent by construction (only definitive
   verdicts are cached, and replay failures fall back to the search);
   $(b,--no-cache) forces the pre-cache behavior when bisecting. *)

let report_replay = function
  | Ok () ->
      Fmt.pr "Certificate replay on concrete data: OK@.";
      0
  | Error e ->
      (* The checker said yes but concrete replay disagrees: an
         internal inconsistency, not a refinement verdict. *)
      Fmt.pr "Certificate replay FAILED: %s@." e;
      3

let check_instance ?config inst =
  Fmt.pr "Checking %a@." Instance.pp inst;
  match Instance.check ?config inst with
  | Ok success ->
      Fmt.pr "%a@." (Entangle.Report.pp_success inst.Instance.gs) success;
      report_replay
        (Entangle.Certify.replay ~env:inst.Instance.env ~gs:inst.Instance.gs
           ~gd:inst.Instance.gd ~input_relation:inst.Instance.input_relation
           ~output_relation:success.output_relation ())
  | Error failure ->
      Fmt.pr "%a@." (Entangle.Report.pp_failure inst.Instance.gs) failure;
      Entangle.Refine.exit_code (Error failure)

(* --- remote checking ----------------------------------------------------- *)

module Serve = Entangle_serve

(* The retry policy the shared --remote-retries / --remote-timeout-s
   flags imply; backoff shape and jitter seed stay at the library
   defaults. *)
let retry_of_opts (opts : Output_opts.t) =
  {
    Serve.Client.default_retry with
    Serve.Client.retries = opts.Output_opts.remote_retries;
    timeout_s = opts.Output_opts.remote_timeout_s;
  }

(* Ship one check to the resident daemon: graphs and relation travel
   structurally, the verbatim report comes back with the verdict, exit
   code and statistics a local run would have produced. The call rides
   the retry ladder: transient failures (refused, busy, timeout) redial
   with backoff; checks are idempotent so retrying after a sent request
   is safe too. *)
let remote_reply ~retry ~socket ~options ~gs ~gd ~input_relation =
  Serve.Client.call ~retry ~socket
    (Serve.Protocol.Check
       {
         options;
         gs = Entangle_ir.Serial.graph_to_sexp gs;
         gd = Entangle_ir.Serial.graph_to_sexp gd;
         relation = Entangle.Relation_io.to_sexp input_relation;
       })

let remote_options (opts : Output_opts.t) ~family =
  {
    Serve.Protocol.family;
    namespace = opts.Output_opts.namespace;
    keep_going = opts.Output_opts.keep_going;
  }

(* [handle_success] maps a successful remote verdict to the exit code;
   [verify] replays the returned certificate locally (same as the local
   path), [check-files] just accepts it. *)
let remote_check ~retry ~socket ~options ~gs ~gd ~input_relation
    ~handle_success =
  match remote_reply ~retry ~socket ~options ~gs ~gd ~input_relation with
  | Error e ->
      Fmt.epr "cannot reach daemon on %s: %s (%d attempt%s)@." socket
        (Serve.Client.error_message e) e.Serve.Client.attempts
        (if e.Serve.Client.attempts = 1 then "" else "s");
      124
  | Ok (Serve.Protocol.Error_reply { code; message }) ->
      Fmt.epr "daemon error: %s@." message;
      Serve.Protocol.error_exit_code code
  | Ok (Serve.Protocol.Checked r) ->
      Fmt.pr "%s@." r.Serve.Protocol.report;
      if r.Serve.Protocol.exit_code = 0 then
        handle_success r.Serve.Protocol.output_relation
      else r.Serve.Protocol.exit_code
  | Ok _ ->
      Fmt.epr "unexpected daemon reply@.";
      3

let remote_check_instance opts socket (inst : Instance.t) =
  Fmt.pr "Checking %a@." Instance.pp inst;
  let options =
    remote_options opts
      ~family:
        (Some (Entangle_lemmas.Registry.family_name inst.Instance.family))
  in
  let gs = inst.Instance.gs and gd = inst.Instance.gd in
  let input_relation = inst.Instance.input_relation in
  remote_check ~retry:(retry_of_opts opts) ~socket ~options ~gs ~gd
    ~input_relation
    ~handle_success:(fun output_relation ->
      report_replay
        (match output_relation with
        | None -> Error "daemon reply carried no certificate"
        | Some rel_sexp -> (
            match Entangle.Relation_io.of_sexp ~gs ~gd rel_sexp with
            | Error e -> Error ("unreadable certificate: " ^ e)
            | Ok output_relation ->
                Entangle.Certify.replay ~env:inst.Instance.env ~gs ~gd
                  ~input_relation ~output_relation ())))

(* --- verify ------------------------------------------------------------ *)

let model_arg =
  let doc =
    Fmt.str "Model to verify: one of %a."
      Fmt.(list ~sep:comma string)
      Zoo.names
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let degree_arg =
  Arg.(value & opt int 2 & info [ "d"; "degree" ] ~doc:"Parallelism degree.")

let layers_arg =
  Arg.(value & opt int 1 & info [ "l"; "layers" ] ~doc:"Number of layers.")

let verify_cmd =
  let run opts model degree layers =
    Output_opts.with_sink opts (fun sink ->
        let config = Output_opts.config opts sink in
        match Zoo.by_name ~degree ~layers model with
        | Some inst -> (
            match opts.Output_opts.remote with
            | Some socket -> remote_check_instance opts socket inst
            | None -> check_instance ~config inst)
        | None ->
            Fmt.epr "unknown model %s; try: %a@." model
              Fmt.(list ~sep:comma string)
              Zoo.names;
            124)
  in
  let info =
    Cmd.info "verify" ~exits:verdict_exits
      ~doc:"Check that a distributed model refines its spec."
  in
  Cmd.v info
    Term.(
      const run $ Output_opts.term $ model_arg $ degree_arg $ layers_arg)

(* --- localize ----------------------------------------------------------- *)

let bug_arg =
  Arg.(required & pos 0 (some int) None & info [] ~docv:"BUG" ~doc:"Bug id, 1-9.")

let localize_cmd =
  let run opts id =
    Output_opts.with_sink opts (fun sink ->
        let config = Output_opts.config opts sink in
        match Bugs.case id with
        | exception Invalid_argument e ->
            Fmt.epr "%s@." e;
            124
        | case -> (
            Fmt.pr "Bug %d (%s): %s@.@." case.Bugs.id case.Bugs.framework
              case.Bugs.description;
            match Bugs.run ~config case with
            | Bugs.Detected report ->
                Fmt.pr "%s@." report;
                0
            | Bugs.Missed ->
                Fmt.pr "NOT DETECTED: the checker accepted the implementation@.";
                1))
  in
  let info =
    Cmd.info "localize"
      ~doc:"Reproduce and localize one of the 9 case-study bugs."
  in
  Cmd.v info Term.(const run $ Output_opts.term $ bug_arg)

(* --- check-files: verify graphs loaded from disk ------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let file_arg name doc = Arg.(required & opt (some file) None & info [ name ] ~doc)

let check_files_cmd =
  let run opts gs_path gd_path rel_path =
    Output_opts.with_sink opts (fun sink ->
        let config = Output_opts.config opts sink in
        let ( let* ) = Result.bind in
        let outcome =
          let* gs = Entangle_ir.Serial.graph_of_string (read_file gs_path) in
          let* gd = Entangle_ir.Serial.graph_of_string (read_file gd_path) in
          let* input_relation =
            Entangle.Relation_io.of_string ~gs ~gd (read_file rel_path)
          in
          Ok (gs, gd, input_relation)
        in
        match outcome with
        | Error e ->
            Fmt.epr "error loading inputs: %s@." e;
            124
        | Ok (gs, gd, input_relation) -> (
            match opts.Output_opts.remote with
            | Some socket ->
                (* No family: the full corpus, same as the local path. *)
                remote_check ~retry:(retry_of_opts opts) ~socket
                  ~options:(remote_options opts ~family:None)
                  ~gs ~gd ~input_relation
                  ~handle_success:(fun _ -> 0)
            | None -> (
                match
                  Entangle.Refine.check ~config ~gs ~gd ~input_relation ()
                with
                | Ok success ->
                    Fmt.pr "%a@." (Entangle.Report.pp_success gs) success;
                    0
                | Error failure ->
                    Fmt.pr "%a@." (Entangle.Report.pp_failure gs) failure;
                    Entangle.Refine.exit_code (Error failure))))
  in
  let info =
    Cmd.info "check-files" ~exits:verdict_exits
      ~doc:
        "Check refinement between graphs loaded from .ent files (see the \
         format in lib/ir/serial.mli)."
  in
  Cmd.v info
    Term.(
      const run $ Output_opts.term
      $ file_arg "gs" "Sequential graph file."
      $ file_arg "gd" "Distributed graph file."
      $ file_arg "rel" "Input relation file.")

(* --- export ------------------------------------------------------------- *)

let export_cmd =
  let run opts model dir dot =
    Output_opts.with_sink opts (fun _sink ->
        match Zoo.by_name model with
        | None ->
            Fmt.epr "unknown model %s@." model;
            124
        | Some inst ->
            let write name contents =
              let path = Filename.concat dir name in
              let oc = open_out path in
              output_string oc contents;
              output_string oc "\n";
              close_out oc;
              Fmt.pr "wrote %s@." path
            in
            write (model ^ "-seq.ent")
              (Entangle_ir.Serial.graph_to_string inst.Instance.gs);
            write (model ^ "-dist.ent")
              (Entangle_ir.Serial.graph_to_string inst.Instance.gd);
            write (model ^ "-rel.ent")
              (Entangle.Relation_io.to_string inst.Instance.input_relation);
            if dot then begin
              write (model ^ "-seq.dot")
                (Entangle_ir.Dot.to_dot inst.Instance.gs);
              write (model ^ "-dist.dot")
                (Entangle_ir.Dot.to_dot inst.Instance.gd)
            end;
            0)
  in
  let info =
    Cmd.info "export"
      ~doc:"Write a built-in model's graphs and relation to .ent files."
  in
  Cmd.v info
    Term.(
      const run $ Output_opts.term $ model_arg
      $ Arg.(value & opt dir "." & info [ "o"; "output" ] ~doc:"Output directory.")
      $ Arg.(value & flag & info [ "dot" ] ~doc:"Also write Graphviz .dot renderings."))

(* --- list / lemmas ------------------------------------------------------ *)

let list_cmd =
  let run opts =
    Output_opts.with_sink opts (fun _sink ->
        Fmt.pr "Models:@.";
        List.iter (fun n -> Fmt.pr "  %s@." n) Zoo.names;
        Fmt.pr "@.Bugs:@.";
        List.iter
          (fun c ->
            Fmt.pr "  %d: [%s] %s@." c.Bugs.id c.Bugs.framework
              c.Bugs.description)
          (Bugs.all ());
        0)
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in models and bug cases.")
    Term.(const run $ Output_opts.term)

let lemmas_cmd =
  let run opts =
    Output_opts.with_sink opts (fun _sink ->
        let all = Entangle_lemmas.Registry.all in
        Fmt.pr "%d lemmas, %d rules:@." (List.length all)
          (List.length (Entangle_lemmas.Lemma.rules all));
        List.iteri
          (fun i l -> Fmt.pr "  %2d %a@." i Entangle_lemmas.Lemma.pp l)
          all;
        0)
  in
  Cmd.v (Cmd.info "lemmas" ~doc:"Show the lemma corpus.")
    Term.(const run $ Output_opts.term)

(* --- lint --------------------------------------------------------------- *)

let lint_cmd =
  let module A = Entangle_analysis in
  let run opts seed verify_lemmas rank_bound waivers_file =
    Output_opts.with_sink opts (fun sink ->
        let named =
          List.concat_map
            (fun name ->
              match Zoo.by_name name with
              | None -> []
              | Some inst ->
                  [
                    (name ^ "/seq", inst.Instance.gs);
                    (name ^ "/dist", inst.Instance.gd);
                  ])
            Zoo.names
        in
        match
          match waivers_file with
          | None -> Ok []
          | Some path -> A.Lint.parse_waivers (read_file path)
        with
        | Error e ->
            Fmt.epr "bad --waivers file: %s@." e;
            124
        | Ok waivers ->
            let graph_diags = A.Lint.graphs named in
            let corpus_diags, stats = A.Lint.corpus ~seed () in
            let verify =
              if not verify_lemmas then None
              else
                let config =
                  {
                    A.Lemma_verify.default_config with
                    rank_bound =
                      Option.value rank_bound
                        ~default:A.Lemma_verify.default_config.rank_bound;
                  }
                in
                let span name f =
                  Trace.Sink.span sink ~cat:"lemma-verify" name f
                in
                let verify_diags, report =
                  Trace.Sink.span sink ~cat:"lemma-verify" "corpus" (fun () ->
                      A.Lint.verify_corpus ~config ~span ())
                in
                let cover_diags, cover =
                  A.Lint.coverage ~report ~stats ~waivers
                in
                Some (verify_diags @ cover_diags, report, cover)
            in
            let diags =
              graph_diags @ corpus_diags
              @ match verify with Some (ds, _, _) -> ds | None -> []
            in
            if opts.Output_opts.json then begin
              let module J = Trace.Jsonw in
              print_endline
                (J.envelope ~name:"lint" ~version:1
                   [
                     ("diagnostics", A.Diagnostic.report_to_json diags);
                     ( "coverage",
                       match verify with
                       | Some (_, report, cover) ->
                           A.Lint.coverage_to_json
                             (report.A.Lemma_verify.rank_bound, cover)
                       | None -> J.Null );
                   ])
            end
            else begin
              Fmt.pr "Linted %d graphs; audited %d lemmas (%d exercised, %d \
                      differential comparisons).@."
                (List.length named) stats.A.Lemma_check.lemmas_audited
                stats.A.Lemma_check.lemmas_exercised
                stats.A.Lemma_check.comparisons;
              if stats.A.Lemma_check.unexercised <> [] then
                Fmt.pr "Unexercised lemmas: %a@."
                  Fmt.(list ~sep:comma string)
                  stats.A.Lemma_check.unexercised;
              Option.iter
                (fun (_, report, cover) ->
                  Fmt.pr "%a" A.Lint.pp_coverage
                    (report.A.Lemma_verify.rank_bound, cover))
                verify;
              Fmt.pr "%a@." A.Diagnostic.pp_report diags
            end;
            A.Lint.exit_code diags)
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Random seed for the differential lemma audit.")
  in
  let verify_lemmas =
    Arg.(
      value & flag
      & info [ "verify-lemmas" ]
          ~doc:
            "Run the symbolic bounded verifier over the lemma corpus and \
             gate on coverage: every lemma must be symbolically verified, \
             numerically exercised, or waived (LEMMA203 otherwise).")
  in
  let rank_bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "rank-bound" ] ~docv:"N"
          ~doc:
            "Maximum tensor rank the symbolic verifier enumerates (with \
             $(b,--verify-lemmas)).")
  in
  let waivers =
    Arg.(
      value
      & opt (some file) None
      & info [ "waivers" ] ~docv:"FILE"
          ~doc:
            "Waiver list for the coverage gate: one \"lemma-name: reason\" \
             per line, '#' comments.")
  in
  let info =
    Cmd.info "lint"
      ~doc:
        "Statically analyze the built-in model graphs and the lemma corpus: \
         graph well-formedness, lemma structural checks, a differential \
         soundness audit, and (with $(b,--verify-lemmas)) symbolic bounded \
         verification of every rewrite rule. Exits non-zero when any \
         error-severity diagnostic is found."
  in
  Cmd.v info
    Term.(
      const run $ Output_opts.term $ seed $ verify_lemmas $ rank_bound
      $ waivers)

(* --- trace-check: validate an emitted trace ------------------------------ *)

let trace_check_cmd =
  let run opts file =
    Output_opts.with_sink opts (fun _sink ->
        match Trace.Chrome.validate (read_file file) with
        | Ok n ->
            Fmt.pr "%s: valid Chrome trace (%d events)@." file n;
            0
        | Error e ->
            Fmt.epr "%s: INVALID trace: %s@." file e;
            1)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file written by --trace.")
  in
  let info =
    Cmd.info "trace-check"
      ~doc:
        "Validate a --trace output file: it must parse as Chrome trace-event \
         JSON with balanced spans and contain every required event phase and \
         category (the $(b,dune build @trace-smoke) gate)."
  in
  Cmd.v info Term.(const run $ Output_opts.term $ file)

(* --- cache: inspect and maintain the certificate store ------------------ *)

(* Shared by [cache stats --json] and [remote stats --json]: local and
   daemon-side stores must render identically. *)
let cache_stats_json ~dir ~entries ~bytes ~shards ~quarantined ~max_bytes
    ~max_age_s ~evicted_entries ~evicted_bytes ~expired_entries =
  let module J = Trace.Jsonw in
  J.envelope ~name:"cache-stats" ~version:1
    [
      ("dir", J.Str dir);
      ("entries", J.Int entries);
      ("bytes", J.Int bytes);
      ("shards", J.Int shards);
      ("quarantined", J.Int quarantined);
      ("max_bytes", match max_bytes with Some b -> J.Int b | None -> J.Null);
      ("max_age_s", match max_age_s with Some a -> J.Float a | None -> J.Null);
      ("evicted_entries", J.Int evicted_entries);
      ("evicted_bytes", J.Int evicted_bytes);
      ("expired_entries", J.Int expired_entries);
    ]

let print_cache_stats ~json ~dir ~entries ~bytes ~shards ~quarantined
    ~max_bytes ~max_age_s ~evicted_entries ~evicted_bytes ~expired_entries =
  if json then
    print_endline
      (cache_stats_json ~dir ~entries ~bytes ~shards ~quarantined ~max_bytes
         ~max_age_s ~evicted_entries ~evicted_bytes ~expired_entries)
  else begin
    Fmt.pr "cache %s: %d entries (%d bytes, %d shards), %d quarantined@." dir
      entries bytes shards quarantined;
    Fmt.pr "  budget: %s, age bound %s@."
      (match max_bytes with
      | Some b -> Fmt.str "%d bytes" b
      | None -> "unbounded")
      (match max_age_s with
      | Some a -> Fmt.str "%gs" a
      | None -> "none");
    Fmt.pr "  retention: %d evicted (%d bytes), %d expired@." evicted_entries
      evicted_bytes expired_entries
  end

let cache_cmd =
  let module C = Entangle_cache.Cache in
  let module S = Entangle_cache.Store in
  let run opts action file out gc =
    Output_opts.with_sink opts (fun _sink ->
        match
          C.create ?dir:opts.Output_opts.cache_dir
            ~budget:(Output_opts.budget opts) ()
        with
        | Error e ->
            Fmt.epr "cannot open certificate cache: %s@." e;
            124
        | Ok cache ->
            let code =
              match action with
              | `Export ->
                  let text, count = C.export_archive cache in
                  (match out with
                  | None -> print_string text
                  | Some path ->
                      let oc = open_out_bin path in
                      output_string oc text;
                      close_out oc;
                      Fmt.pr "wrote %s@." path);
                  Fmt.epr "cache %s: exported %d entries@." (C.dir cache) count;
                  0
              | `Import -> (
                  match file with
                  | None ->
                      Fmt.epr "cache import: missing archive FILE argument@.";
                      124
                  | Some path -> (
                      match C.import_archive cache (read_file path) with
                      | Ok (imported, rejected) ->
                          Fmt.pr
                            "cache %s: imported %d entries, rejected %d@."
                            (C.dir cache) imported rejected;
                          if rejected = 0 then 0 else 1
                      | Error e ->
                          Fmt.epr "cache import: %s@." e;
                          124))
              | `Stats ->
                  let s = C.stats cache in
                  print_cache_stats ~json:opts.Output_opts.json
                    ~dir:(C.dir cache) ~entries:s.S.entries ~bytes:s.S.bytes
                    ~shards:s.S.shards ~quarantined:s.S.quarantined
                    ~max_bytes:s.S.max_bytes ~max_age_s:s.S.max_age_s
                    ~evicted_entries:s.S.evicted_entries
                    ~evicted_bytes:s.S.evicted_bytes
                    ~expired_entries:s.S.expired_entries;
                  0
              | `Clear ->
                  let removed = C.clear cache in
                  Fmt.pr "cache %s: removed %d entries@." (C.dir cache) removed;
                  0
              | `Verify ->
                  let v = C.verify cache in
                  Fmt.pr
                    "cache %s: checked %d entries, %d ok, %d invalid \
                     (quarantined)@."
                    (C.dir cache) v.S.checked v.S.ok v.S.invalid;
                  if v.S.invalid = 0 then 0 else 1
            in
            if gc then begin
              let r = C.gc cache in
              Fmt.pr
                "gc %s: expired %d, evicted %d (%d bytes freed); %d entries \
                 (%d bytes) remain@."
                (C.dir cache) r.S.expired r.S.evicted r.S.freed_bytes
                r.S.remaining_entries r.S.remaining_bytes
            end;
            code)
  in
  let action =
    let actions =
      [
        ("stats", `Stats);
        ("clear", `Clear);
        ("verify", `Verify);
        ("export", `Export);
        ("import", `Import);
      ]
    in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,stats) prints entry counts, sizes and retention activity; \
             $(b,clear) removes every entry; $(b,verify) re-validates every \
             entry's payload, quarantining damage (exits 1 if any entry was \
             invalid); $(b,export) dumps every valid entry as a portable \
             archive (to --out or stdout) — quarantined, version-skewed and \
             corrupt entries never export; $(b,import) $(i,FILE) loads an \
             archive, structurally validating each payload (exits 1 if any \
             entry was rejected).")
  in
  let file =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"FILE" ~doc:"Archive file for $(b,import).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where $(b,export) writes the archive (default stdout).")
  in
  let gc =
    Arg.(
      value & flag
      & info [ "gc" ]
          ~doc:
            "After the action, compact the store in one shot: drop entries \
             older than the age bound, then evict least-recently-used \
             entries until the byte budget (--cache-max-bytes or \
             $(b,\\$ENTANGLE_CACHE_MAX_BYTES)) is met, and clean up stale \
             temporary files. With no budget configured only the cleanup \
             runs. Typically $(b,entangle cache verify --gc).")
  in
  let info =
    Cmd.info "cache"
      ~doc:
        "Inspect or maintain the persistent certificate cache (see \
         --cache-dir; checking commands populate it automatically unless \
         --no-cache is given). Retention defaults: no byte budget and no \
         age bound — entries live until $(b,clear), $(b,--gc), or a budget \
         set via flags or environment evicts them, least-recently-used \
         first."
  in
  Cmd.v info Term.(const run $ Output_opts.term $ action $ file $ out $ gc)

(* --- cert: portable tamper-evident certificate bundles ------------------- *)

module CE = Entangle_certexport

let write_text ~out text =
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      Fmt.pr "wrote %s@." path

let cert_error_json (e : CE.Cert_error.t) =
  let module J = Trace.Jsonw in
  J.envelope ~name:"cert-verify" ~version:1
    [
      ("accepted", J.Bool false);
      ("code", J.Str (CE.Cert_error.code_string e.CE.Cert_error.code));
      ("mnemonic", J.Str (CE.Cert_error.mnemonic e.CE.Cert_error.code));
      ("detail", J.Str e.CE.Cert_error.detail);
    ]

let cert_report_json (r : CE.Verify.report) =
  let module J = Trace.Jsonw in
  J.envelope ~name:"cert-verify" ~version:1
    [
      ("accepted", J.Bool true);
      ("id", J.Str r.CE.Verify.id);
      ("operators", J.Int r.CE.Verify.operators);
      ("outputs_checked", J.Int r.CE.Verify.outputs_checked);
      ("exprs_replayed", J.Int r.CE.Verify.exprs_replayed);
      ("tol", J.Float r.CE.Verify.tol);
      ("seed", J.Int r.CE.Verify.seed);
    ]

let print_cert_report ~json (r : CE.Verify.report) =
  if json then print_endline (cert_report_json r)
  else
    Fmt.pr
      "certificate %s: VERIFIED (%d operators, %d outputs, %d expressions \
       replayed, tol %g, seed %d)@."
      r.CE.Verify.id r.CE.Verify.operators r.CE.Verify.outputs_checked
      r.CE.Verify.exprs_replayed r.CE.Verify.tol r.CE.Verify.seed

let print_cert_error ~json (e : CE.Cert_error.t) =
  if json then print_endline (cert_error_json e)
  else Fmt.pr "certificate REJECTED: %a@." CE.Cert_error.pp e

(* [cert export]: run the check (locally or on the daemon via
   cert-fetch) and write the portable bundle. Either way the bundle on
   disk has passed the minimal verifier once: the local path re-verifies
   its own export as a self-check, the remote path re-verifies because
   the daemon is outside the trust boundary. *)
let cert_export_cmd =
  let run opts model out =
    Output_opts.with_sink opts (fun sink ->
        match Zoo.by_name model with
        | None ->
            Fmt.epr "unknown model %s; try: %a@." model
              Fmt.(list ~sep:comma string)
              Zoo.names;
            124
        | Some inst -> (
            let finish bundle_text =
              match CE.Verify.check_string bundle_text with
              | Error e ->
                  Fmt.epr "exported bundle failed re-verification: %a@."
                    CE.Cert_error.pp e;
                  3
              | Ok report ->
                  write_text ~out bundle_text;
                  Fmt.epr "certificate %s: verified before writing@."
                    report.CE.Verify.id;
                  0
            in
            match opts.Output_opts.remote with
            | Some socket -> (
                let module Cl = Serve.Client in
                let module P = Serve.Protocol in
                let req =
                  P.Cert_fetch
                    {
                      options =
                        remote_options opts
                          ~family:
                            (Some
                               (Entangle_lemmas.Registry.family_name
                                  inst.Instance.family));
                      gs = Entangle_ir.Serial.graph_to_sexp inst.Instance.gs;
                      gd = Entangle_ir.Serial.graph_to_sexp inst.Instance.gd;
                      relation =
                        Entangle.Relation_io.to_sexp
                          inst.Instance.input_relation;
                      env =
                        Entangle.Cert_export.env_bindings inst.Instance.env;
                    }
                in
                match Cl.call ~retry:(retry_of_opts opts) ~socket req with
                | Error e ->
                    Fmt.epr "cannot reach daemon on %s: %s@." socket
                      (Cl.error_message e);
                    124
                | Ok (P.Error_reply { code; message }) ->
                    Fmt.epr "daemon error: %s@." message;
                    P.error_exit_code code
                | Ok (P.Checked r) ->
                    (* the check ran but did not refine: no bundle *)
                    Fmt.pr "%s@." r.P.report;
                    r.P.exit_code
                | Ok (P.Cert_bundle { bundle }) -> finish bundle
                | Ok _ ->
                    Fmt.epr "unexpected daemon reply@.";
                    3)
            | None -> (
                let config = Output_opts.config opts sink in
                match Instance.check ~config inst with
                | Error failure ->
                    Fmt.pr "%a@."
                      (Entangle.Report.pp_failure inst.Instance.gs)
                      failure;
                    Entangle.Refine.exit_code (Error failure)
                | Ok success -> (
                    match
                      Entangle.Cert_export.bundle ~producer:"entangle-cli"
                        ~gs:inst.Instance.gs ~gd:inst.Instance.gd
                        ~env:inst.Instance.env
                        ~input_relation:inst.Instance.input_relation success
                    with
                    | Error e ->
                        Fmt.epr "cannot export certificate: %s@." e;
                        3
                    | Ok b -> finish (CE.Bundle.to_string b)))))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the bundle (default stdout).")
  in
  let info =
    Cmd.info "export" ~exits:verdict_exits
      ~doc:
        "Check a built-in model and write its portable certificate bundle. \
         With $(b,--remote) the daemon runs the check ($(b,cert-fetch)) and \
         the bundle is re-verified locally with the minimal verifier before \
         it is written — the daemon is outside the trust boundary."
  in
  Cmd.v info Term.(const run $ Output_opts.term $ model_arg $ out)

let cert_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BUNDLE" ~doc:"Certificate bundle file.")

let cert_verify_cmd =
  let run opts file =
    Output_opts.with_sink opts (fun _sink ->
        let text = read_file file in
        match opts.Output_opts.remote with
        | None -> (
            match CE.Verify.check_string text with
            | Ok report ->
                print_cert_report ~json:opts.Output_opts.json report;
                0
            | Error e ->
                print_cert_error ~json:opts.Output_opts.json e;
                1)
        | Some socket -> (
            let module Cl = Serve.Client in
            let module P = Serve.Protocol in
            match
              Cl.call ~retry:(retry_of_opts opts) ~socket
                (P.Cert_push { bundle = text })
            with
            | Error e ->
                Fmt.epr "cannot reach daemon on %s: %s@." socket
                  (Cl.error_message e);
                124
            | Ok (P.Error_reply { code; message }) ->
                Fmt.epr "daemon error: %s@." message;
                P.error_exit_code code
            | Ok (P.Cert_verdict_reply v) ->
                let module J = Trace.Jsonw in
                if opts.Output_opts.json then
                  print_endline
                    (J.envelope ~name:"cert-verify" ~version:1
                       [
                         ("accepted", J.Bool v.P.accepted);
                         ( "id",
                           match v.P.cert_id with
                           | Some i -> J.Str i
                           | None -> J.Null );
                         ( "code",
                           match v.P.cert_code with
                           | Some c -> J.Str c
                           | None -> J.Null );
                         ("detail", J.Str v.P.cert_detail);
                       ])
                else if v.P.accepted then
                  Fmt.pr "daemon accepted certificate%a: %s@."
                    Fmt.(option (fmt " %s"))
                    v.P.cert_id v.P.cert_detail
                else
                  Fmt.pr "daemon REJECTED certificate (%s): %s@."
                    (Option.value v.P.cert_code ~default:"?")
                    v.P.cert_detail;
                if v.P.accepted then 0 else 1
            | Ok _ ->
                Fmt.epr "unexpected daemon reply@.";
                3))
  in
  let info =
    Cmd.info "verify"
      ~doc:
        "Verify a certificate bundle with the independent minimal verifier \
         (replay, cleanliness and shape inference only — no e-graph). With \
         $(b,--remote) the bundle is pushed to the daemon ($(b,cert-push)) \
         and its verdict reported. Exits 0 when accepted, 1 with the \
         structured $(b,CERT)$(i,nnn) code when rejected."
  in
  Cmd.v info Term.(const run $ Output_opts.term $ cert_file_arg)

let cert_inspect_cmd =
  let run opts file =
    Output_opts.with_sink opts (fun _sink ->
        match CE.Bundle.of_string (read_file file) with
        | Error e ->
            print_cert_error ~json:opts.Output_opts.json e;
            1
        | Ok b ->
            let stmt = CE.Bundle.statement b in
            if opts.Output_opts.json then begin
              let module J = Trace.Jsonw in
              print_endline
                (J.envelope ~name:"cert-inspect" ~version:1
                   [
                     ("id", J.Str (CE.Bundle.id b));
                     ("schema", J.Int CE.Bundle.schema);
                     ("producer", J.Str b.CE.Bundle.producer);
                     ( "statement",
                       J.Obj
                         (List.map
                            (fun (k, v) -> (k, J.Str v))
                            (CE.Bundle.statement_fields stmt)) );
                     ("env", J.Int (List.length b.CE.Bundle.env));
                     ("inputs", J.Int (List.length b.CE.Bundle.inputs));
                     ("outputs", J.Int (List.length b.CE.Bundle.outputs));
                     ("operators", J.Int (List.length b.CE.Bundle.operators));
                   ])
            end
            else begin
              Fmt.pr "bundle %s (schema %d, producer %s)@." (CE.Bundle.id b)
                CE.Bundle.schema b.CE.Bundle.producer;
              Fmt.pr "  statement:@.";
              List.iter
                (fun (k, v) -> Fmt.pr "    %-9s %s@." k v)
                (CE.Bundle.statement_fields stmt);
              Fmt.pr
                "  payload: %d env bindings, %d inputs, %d outputs, %d \
                 operator entries@."
                (List.length b.CE.Bundle.env)
                (List.length b.CE.Bundle.inputs)
                (List.length b.CE.Bundle.outputs)
                (List.length b.CE.Bundle.operators)
            end;
            0)
  in
  let info =
    Cmd.info "inspect"
      ~doc:
        "Parse and integrity-check a bundle (framing, version, section \
         digests, statement binding) and print its manifest without \
         semantic verification. Exits 1 with the $(b,CERT)$(i,nnn) code on \
         a damaged bundle."
  in
  Cmd.v info Term.(const run $ Output_opts.term $ cert_file_arg)

let cert_cmd =
  let info =
    Cmd.info "cert"
      ~doc:
        "Portable tamper-evident certificate bundles: export a checked \
         model's certificate, verify a bundle with the independent minimal \
         verifier, inspect a bundle's manifest. See DESIGN.md for the \
         bundle grammar and the $(b,CERT) error taxonomy."
  in
  Cmd.group info [ cert_export_cmd; cert_verify_cmd; cert_inspect_cmd ]

(* --- serve / remote: the resident checker service ------------------------ *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"SOCKET"
        ~doc:"Path of the daemon's Unix-domain socket.")

let serve_cmd =
  let run opts socket name max_connections max_clients io_timeout_s
      idle_timeout_s request_deadline_s drain_timeout_s =
    Output_opts.with_sink opts (fun sink ->
        let config = Output_opts.config opts sink in
        match
          Serve.Server.create ~name ~config ?max_connections ~max_clients
            ~io_timeout_s ?idle_timeout_s ?request_deadline_s ~drain_timeout_s
            ~socket ()
        with
        | Error e ->
            Fmt.epr "%s@." (Serve.Server.error_message e);
            124
        | Ok server ->
            Fmt.pr "entangle serve: listening on %s (protocol %d)@." socket
              Serve.Protocol.protocol_version;
            Serve.Server.run ~signals:true server;
            let s = Serve.Server.stats server in
            Fmt.pr
              "entangle serve: done after %d requests (%d connections, %d \
               rejected busy, %d timed out)@."
              s.Serve.Protocol.served s.Serve.Protocol.accepted
              s.Serve.Protocol.rejected_busy s.Serve.Protocol.timed_out;
            0)
  in
  let name_arg =
    Arg.(
      value
      & opt string "entangle-serve"
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Server identity echoed in the handshake and $(b,describe).")
  in
  let max_connections =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Exit after serving $(docv) connections (mainly for tests; \
             default: serve until $(b,remote shutdown)).")
  in
  let max_clients =
    Arg.(
      value & opt int 64
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Concurrent-connection admission limit: a client beyond the \
             $(docv)th is answered with a structured, retryable $(b,busy) \
             frame and disconnected.")
  in
  let io_timeout_s =
    Arg.(
      value & opt float 30.
      & info [ "io-timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Per-frame I/O deadline: bounds reading one request frame once \
             its first byte arrived, and writing one reply. Slow or stalled \
             peers cost one timeout, never a wedged handler.")
  in
  let idle_timeout_s =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Disconnect a client that sends no request for $(docv) seconds \
             (default: keep idle connections open indefinitely).")
  in
  let request_deadline_s =
    Arg.(
      value
      & opt (some float) None
      & info [ "request-deadline-s" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget per request, folded into the checker's \
             cooperative deadline: an over-budget check returns an \
             inconclusive verdict (a client-supplied deadline can only \
             tighten this).")
  in
  let drain_timeout_s =
    Arg.(
      value & opt float 5.
      & info [ "drain-timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "On shutdown (SIGTERM, SIGINT or $(b,remote shutdown)), how \
             long in-flight requests get to finish before the daemon stops \
             waiting for their threads.")
  in
  let info =
    Cmd.info "serve" ~exits:Cmd.Exit.defaults
      ~doc:
        "Run the resident checker daemon: keep the lemma corpus, \
         configuration and certificate cache warm in one process and answer \
         checks over a Unix-domain socket (see $(b,--remote) on $(b,verify) \
         and $(b,check-files), and the $(b,remote) command). Each connection \
         gets its own handler thread up to $(b,--max-clients); SIGTERM and \
         SIGINT drain gracefully. Remote checks return the same verdicts, \
         reports, exit codes and statistics as local runs. Cache retention \
         flags (--cache-max-bytes, --cache-max-age-s) apply to the daemon's \
         store."
  in
  Cmd.v info
    Term.(
      const run $ Output_opts.term $ socket_arg $ name_arg $ max_connections
      $ max_clients $ io_timeout_s $ idle_timeout_s $ request_deadline_s
      $ drain_timeout_s)

(* [remote stats]: the daemon's live connection counters, plus — when
   it runs cached — the cache statistics in the exact shape of
   [cache stats --json], nested under ["cache"]. *)
let remote_stats_json ~(server : Serve.Protocol.server_stats) ~cache =
  let module J = Trace.Jsonw in
  let module P = Serve.Protocol in
  J.envelope ~name:"remote-stats" ~version:1
    [
      ( "server",
        J.Obj
          [
            ("accepted", J.Int server.P.accepted);
            ("active", J.Int server.P.active);
            ("served", J.Int server.P.served);
            ("rejected_busy", J.Int server.P.rejected_busy);
            ("timed_out", J.Int server.P.timed_out);
            ("drained", J.Int server.P.drained);
            ("accept_failures", J.Int server.P.accept_failures);
            ("max_clients", J.Int server.P.max_clients);
          ] );
      ( "cache",
        match cache with
        | None -> J.Null
        | Some (r : P.cache_stats_reply) ->
            J.Raw
              (cache_stats_json ~dir:r.P.dir ~entries:r.P.entries
                 ~bytes:r.P.bytes ~shards:r.P.shards
                 ~quarantined:r.P.quarantined ~max_bytes:r.P.max_bytes
                 ~max_age_s:r.P.max_age_s ~evicted_entries:r.P.evicted_entries
                 ~evicted_bytes:r.P.evicted_bytes
                 ~expired_entries:r.P.expired_entries) );
    ]

let remote_cmd =
  let module Cl = Serve.Client in
  let module P = Serve.Protocol in
  let run opts socket action =
    Output_opts.with_sink opts (fun _sink ->
        (* Every action is one dialed request riding the retry ladder;
           the ladder itself refuses to resend the non-idempotent ones
           (clear, shutdown) once the request frame is out. *)
        let call req = Cl.call ~retry:(retry_of_opts opts) ~socket req in
        let transport (e : Cl.error) =
          Fmt.epr "cannot reach daemon on %s: %s (%d attempt%s)@." socket
            (Cl.error_message e) e.Cl.attempts
            (if e.Cl.attempts = 1 then "" else "s");
          124
        in
        let daemon_error code message =
          Fmt.epr "daemon error: %s@." message;
          P.error_exit_code code
        in
        let unexpected () =
          Fmt.epr "unexpected daemon reply@.";
          3
        in
        match action with
        | `Ping -> (
            match call P.Ping with
            | Ok P.Pong ->
                Fmt.pr "pong@.";
                0
            | Ok (P.Error_reply { code; message }) -> daemon_error code message
            | Ok _ -> unexpected ()
            | Error e -> transport e)
        | `Describe -> (
            match call P.Describe with
            | Ok (P.Described json) ->
                print_endline json;
                0
            | Ok (P.Error_reply { code; message }) -> daemon_error code message
            | Ok _ -> unexpected ()
            | Error e -> transport e)
        | `Shutdown -> (
            match call P.Shutdown with
            | Ok P.Bye ->
                Fmt.pr "daemon shut down@.";
                0
            | Ok (P.Error_reply { code; message }) -> daemon_error code message
            | Ok _ -> unexpected ()
            | Error e -> transport e)
        | `Stats -> (
            match call P.Server_stats with
            | Error e -> transport e
            | Ok (P.Error_reply { code; message }) -> daemon_error code message
            | Ok (P.Server_stats_reply s) ->
                let cache =
                  match call P.Cache_stats with
                  | Ok (P.Cache_stats_reply r) -> Some r
                  | Ok _ | Error _ -> None
                in
                if opts.Output_opts.json then
                  print_endline (remote_stats_json ~server:s ~cache)
                else begin
                  Fmt.pr
                    "server: %d connections accepted (%d active), %d requests \
                     served@."
                    s.P.accepted s.P.active s.P.served;
                  Fmt.pr
                    "  %d rejected busy (limit %d), %d timed out, %d drained, \
                     %d accept failures@."
                    s.P.rejected_busy s.P.max_clients s.P.timed_out s.P.drained
                    s.P.accept_failures;
                  match cache with
                  | Some r ->
                      print_cache_stats ~json:false ~dir:r.P.dir
                        ~entries:r.P.entries ~bytes:r.P.bytes ~shards:r.P.shards
                        ~quarantined:r.P.quarantined ~max_bytes:r.P.max_bytes
                        ~max_age_s:r.P.max_age_s
                        ~evicted_entries:r.P.evicted_entries
                        ~evicted_bytes:r.P.evicted_bytes
                        ~expired_entries:r.P.expired_entries
                  | None -> Fmt.pr "cache: none (daemon runs uncached)@."
                end;
                0
            | Ok _ -> unexpected ())
        | `Clear -> (
            match call P.Cache_clear with
            | Ok (P.Cache_cleared n) ->
                Fmt.pr "daemon cache: removed %d entries@." n;
                0
            | Ok (P.Error_reply { code; message }) -> daemon_error code message
            | Ok _ -> unexpected ()
            | Error e -> transport e))
  in
  let action =
    let actions =
      [
        ("ping", `Ping);
        ("stats", `Stats);
        ("clear", `Clear);
        ("describe", `Describe);
        ("shutdown", `Shutdown);
      ]
    in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION"
          ~doc:
            "$(b,ping) checks liveness; $(b,stats) prints the daemon's \
             connection counters (accepted, rejected-busy, timed-out, \
             drained) and its cache statistics (same shape as $(b,cache \
             stats)); $(b,clear) empties the daemon's cache; $(b,describe) \
             prints the protocol introspection document; $(b,shutdown) asks \
             the daemon to exit.")
  in
  let info =
    Cmd.info "remote"
      ~doc:
        "Talk to a running $(b,entangle serve) daemon: liveness, cache \
         inspection and maintenance, protocol introspection, shutdown."
  in
  Cmd.v info Term.(const run $ Output_opts.term $ socket_arg $ action)

let main =
  let info =
    Cmd.info "entangle" ~version:"1.0.0"
      ~doc:"Static refinement checking for distributed ML models."
  in
  Cmd.group info
    [
      verify_cmd;
      check_files_cmd;
      export_cmd;
      localize_cmd;
      list_cmd;
      lemmas_cmd;
      lint_cmd;
      trace_check_cmd;
      cache_cmd;
      cert_cmd;
      serve_cmd;
      remote_cmd;
    ]

let () = exit (Cmd.eval' main)
