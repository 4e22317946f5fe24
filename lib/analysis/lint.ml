open Entangle_lemmas

let graphs named =
  Diagnostic.sort
    (List.concat_map
       (fun (name, g) -> Graph_check.check_named ~name g)
       named)

let corpus ?config ~seed () =
  let dup_diags =
    List.map
      (fun name ->
        Diagnostic.warning ~code:"LEMMA005" Diagnostic.Corpus
          "duplicate lemma name %S: only the first definition is kept" name)
      Registry.duplicates
  in
  let diags, stats = Lemma_check.audit ?config ~seed Registry.all in
  (Diagnostic.sort (dup_diags @ diags), stats)

let verify_corpus ?config ?span () =
  let diags, report = Lemma_verify.verify ?config ?span Registry.all in
  (Diagnostic.sort diags, report)

(* --- waivers ------------------------------------------------------------ *)

let parse_waivers content =
  let lines = String.split_on_char '\n' content in
  let entries, errs =
    List.fold_left
      (fun (entries, errs) (lineno, line) ->
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line = "" then (entries, errs)
        else
          match String.index_opt line ':' with
          | Some i ->
              let name = String.trim (String.sub line 0 i) in
              let reason =
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              if name = "" || reason = "" then
                ( entries,
                  Printf.sprintf "line %d: empty lemma name or reason" lineno
                  :: errs )
              else ((name, reason) :: entries, errs)
          | None ->
              ( entries,
                Printf.sprintf
                  "line %d: expected \"lemma-name: reason\", got %S" lineno
                  line
                :: errs ))
      ([], [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  match errs with
  | [] -> Ok (List.rev entries)
  | e -> Error (String.concat "; " (List.rev e))

(* --- coverage gate ------------------------------------------------------ *)

type coverage_row = {
  lemma : string;
  klass : Lemma.klass;
  symbolic : Lemma_verify.verdict;
  exercised : bool;
  waived : string option;  (** waiver reason, when listed *)
}

type coverage = {
  rows : coverage_row list;
  sym_verified : int;
  num_exercised : int;
  waived : int;
  gaps : int;
}

let coverage ~(report : Lemma_verify.report) ~(stats : Lemma_check.stats)
    ~waivers =
  let rows =
    List.map
      (fun (lr : Lemma_verify.lemma_report) ->
        {
          lemma = lr.lemma;
          klass = lr.klass;
          symbolic = lr.verdict;
          exercised = not (List.mem lr.lemma stats.Lemma_check.unexercised);
          waived = List.assoc_opt lr.lemma waivers;
        })
      report.Lemma_verify.lemmas
  in
  let loc lemma = Diagnostic.Lemma { lemma; rule = None; seed = None } in
  (* The differential gate: every lemma must be covered by at least one
     of the three mechanisms. A gap is an error — coverage is never
     silently partial. *)
  let gap_diags =
    List.filter_map
      (fun r ->
        if
          r.symbolic <> Lemma_verify.V_verified
          && (not r.exercised)
          && r.waived = None
        then
          Some
            (Diagnostic.error ~code:"LEMMA203" (loc r.lemma)
               "lemma is neither symbolically verified (%s) nor numerically \
                exercised, and no waiver covers it"
               (Lemma_verify.verdict_name r.symbolic))
        else None)
      rows
  in
  let waiver_diags =
    List.filter_map
      (fun (name, _) ->
        match List.find_opt (fun r -> r.lemma = name) rows with
        | None ->
            Some
              (Diagnostic.warning ~code:"LEMMA204" (loc name)
                 "waiver names no lemma in the corpus; remove the stale entry")
        | Some r when r.symbolic = Lemma_verify.V_verified ->
            Some
              (Diagnostic.warning ~code:"LEMMA204" (loc name)
                 "stale waiver: the lemma is symbolically verified; remove \
                  the entry")
        | Some _ -> None)
      waivers
  in
  let count p = List.length (List.filter p rows) in
  ( Diagnostic.sort (gap_diags @ waiver_diags),
    {
      rows;
      sym_verified = count (fun r -> r.symbolic = Lemma_verify.V_verified);
      num_exercised = count (fun r -> r.exercised);
      waived = count (fun r -> r.waived <> None);
      gaps = List.length gap_diags;
    } )

let pp_coverage ppf (rank_bound, c) =
  Fmt.pf ppf "%-42s %-2s %-12s %-9s %s@." "lemma" "k" "symbolic" "exercised"
    "waived";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-42s %-2s %-12s %-9s %s@." r.lemma
        (Lemma.klass_letter r.klass)
        (Lemma_verify.verdict_name r.symbolic)
        (if r.exercised then "yes" else "no")
        (match r.waived with Some reason -> reason | None -> "-"))
    c.rows;
  Fmt.pf ppf
    "coverage: %d/%d symbolically verified (rank bound %d), %d exercised, %d \
     waived, %d gaps@."
    c.sym_verified (List.length c.rows) rank_bound c.num_exercised c.waived
    c.gaps

let coverage_to_json (rank_bound, c) =
  let module J = Entangle_trace.Jsonw in
  let row r =
    J.Obj
      [
        ("lemma", J.Str r.lemma);
        ("klass", J.Str (Lemma.klass_letter r.klass));
        ("symbolic", J.Str (Lemma_verify.verdict_name r.symbolic));
        ("exercised", J.Bool r.exercised);
        ("waived", match r.waived with Some reason -> J.Str reason | None -> J.Null);
      ]
  in
  J.Obj
    [
      ("rank_bound", J.Int rank_bound);
      ("verified", J.Int c.sym_verified);
      ("exercised", J.Int c.num_exercised);
      ("waived", J.Int c.waived);
      ("gaps", J.Int c.gaps);
      ("lemmas", J.Arr (List.map row c.rows));
    ]

let exit_code ds = if Diagnostic.count_errors ds > 0 then 1 else 0
