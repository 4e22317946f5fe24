(* Tests for the portable certificate bundle (lib/certexport): the
   export -> parse round trip, the tamper matrix (every defense layer
   rejects its mutation with its own structured CERT code), the minimal
   verifier's semantic checks (completeness, cleanliness, scope, shape,
   concrete replay), and [Certify.replay], the adapter through which
   the checker runs the verifier's replay: its bounded mismatch
   accumulator as seen over relations. *)

open Entangle_models
open Entangle_ir
module CE = Entangle_certexport
module Bundle = CE.Bundle
module Verify = CE.Verify
module Cert_error = CE.Cert_error

let check = Alcotest.check

(* --- fixtures ----------------------------------------------------------- *)

(* The bundle of a checked instance; [None] when it does not refine. *)
let export (inst : Instance.t) =
  match Instance.check inst with
  | Error _ -> None
  | Ok success -> (
      match
        Entangle.Cert_export.bundle ~producer:"test-certexport"
          ~gs:inst.Instance.gs ~gd:inst.Instance.gd ~env:inst.Instance.env
          ~input_relation:inst.Instance.input_relation success
      with
      | Error e -> Alcotest.failf "%s: export failed: %s" inst.Instance.name e
      | Ok b -> Some b)

(* One checked zoo instance, exported once: the reference bundle the
   round-trip and tamper tests mutate. *)
let reference =
  lazy
    (match export (Option.get (Zoo.by_name "regression")) with
    | None -> Alcotest.fail "regression must refine"
    | Some b -> b)

let reference_text = lazy (Bundle.to_string (Lazy.force reference))
let code_of_error (e : Cert_error.t) = Cert_error.code_string e.Cert_error.code

let code_of text =
  match Verify.check_string text with
  | Ok _ -> "accepted"
  | Error e -> code_of_error e

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else at (i + 1)
  in
  at 0

let contains hay needle = find_sub hay needle <> None

let replace_first hay needle replacement =
  match find_sub hay needle with
  | None -> Alcotest.failf "fixture: %S not found in bundle text" needle
  | Some i ->
      String.sub hay 0 i ^ replacement
      ^ String.sub hay
          (i + String.length needle)
          (String.length hay - i - String.length needle)

let mutate_at pos f text =
  let b = Bytes.of_string text in
  Bytes.set b pos (f (Bytes.get b pos));
  Bytes.to_string b

(* A hand-built pair small enough to aim each semantic check: gs is
   [y = add x x] over a concrete [4] vector; gd computes the same sum
   as [yd] and a shape-[8] concat as [wd] (both outputs), plus a
   sabotage variant where [yd] is [sub xd xd] — structurally identical,
   numerically zero. *)
type tiny = {
  t_gs : Graph.t;
  t_gd : Graph.t;
  t_x : Tensor.t;
  t_y : Tensor.t;
  t_xd : Tensor.t;
  t_yd : Tensor.t;
  t_wd : Tensor.t;
}

let tiny ?(sound = true) ?(dim = Entangle_symbolic.Symdim.of_int 4) () =
  let b = Graph.Builder.create "tiny-seq" in
  let x = Graph.Builder.input b "x" [ dim ] in
  let y = Graph.Builder.add b ~name:"y" Op.Add [ x; x ] in
  Graph.Builder.output b y;
  let gs = Graph.Builder.finish b in
  let d = Graph.Builder.create "tiny-dist" in
  let xd = Graph.Builder.input d "xd" [ dim ] in
  let yd =
    Graph.Builder.add d ~name:"yd" (if sound then Op.Add else Op.Sub) [ xd; xd ]
  in
  let wd = Graph.Builder.add d ~name:"wd" (Op.Concat { dim = 0 }) [ xd; xd ] in
  Graph.Builder.output d yd;
  Graph.Builder.output d wd;
  let gd = Graph.Builder.finish d in
  { t_gs = gs; t_gd = gd; t_x = x; t_y = y; t_xd = xd; t_yd = yd; t_wd = wd }

let tiny_bundle ?(env = []) ?outputs ?operators (t : tiny) =
  let outputs =
    match outputs with None -> [ (t.t_y, [ Expr.leaf t.t_yd ]) ] | Some o -> o
  in
  let operators =
    match operators with
    | None -> [ { Bundle.op_output = "y"; op_mappings = [ Expr.leaf t.t_yd ] } ]
    | Some ops -> ops
  in
  Bundle.make ~producer:"test-tiny" ~gs:t.t_gs ~gd:t.t_gd ~env
    ~inputs:[ (t.t_x, [ Expr.leaf t.t_xd ]) ]
    ~outputs ~operators ()

let expect_code what expected result =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected %s, got acceptance" what expected
  | Error e -> check Alcotest.string (what ^ " code") expected (code_of_error e)

(* [expect_code], and a detail of at most 1,000 bytes however wide the
   bundle. *)
let expect_bounded what expected result =
  expect_code what expected result;
  match result with
  | Ok _ -> ()
  | Error (e : Cert_error.t) ->
      if String.length e.Cert_error.detail > 1_000 then
        Alcotest.failf "%s: a %d-byte detail" what
          (String.length e.Cert_error.detail)

(* A sequential graph with [n] inputs, each named with 300 bytes and
   shaped [4] or, [symbolic], over a symbol of its own; only the first
   feeds the one node [y]. *)
let wide_gs ?(symbolic = false) n =
  let b = Graph.Builder.create "wide-seq" in
  let inputs =
    List.init n (fun i ->
        let name = Fmt.str "x%d_%s" i (String.make 300 'x') in
        let dim =
          if symbolic then Entangle_symbolic.Symdim.sym ("n" ^ name)
          else Entangle_symbolic.Symdim.of_int 4
        in
        Graph.Builder.input b name [ dim ])
  in
  let y = Graph.Builder.add b ~name:"y" Op.Relu [ List.hd inputs ] in
  Graph.Builder.output b y;
  Graph.Builder.finish b

(* [concat] along axis 0 of [n] copies of [t]. *)
let wide_concat n t =
  Expr.app (Op.Concat { dim = 0 }) (List.init n (fun _ -> Expr.leaf t))

(* SHA-256 of the bundle `entangle cert export <model> --no-cache`
   writes, for every zoo entry that refines. A change that moves a
   verdict, a relation or a certificate changes a digest here; it must
   say why, and update the table. The search's counters can stay put
   while a relation moves, so the perf gate does not catch this. *)
let pinned_bundles =
  [
    ("gpt", "c84501d9ed21bf3f04fc5a2c5225c43473c4fcca92a1e728035cced5afe616fc");
    ("llama", "3a222512638f9b773aec01e6bc1b43df2d99088e385ab75541797d637e86d1cf");
    ("qwen2", "3ab24c9e8296022e5d3580c3d2c88d542c01d5f52174be76f92213da626de9ea");
    ( "bytedance",
      "45d76af6568d4e75fed5ddeb5e915ad4d720489b599c2ed2f549a07a5f54336d" );
    ( "bytedance-bwd",
      "d9d02797b4306bf02e9ce29bed985f994db192307d1c8e2e6213ad89a72674a3" );
    ( "regression",
      "645c0c8f5e323b8d54bbe7559c9b4e803efdf8e43d79d77f9bf6a63a43f9e15f" );
    ( "linear-bwd",
      "9422fe4d6951c06b13083cee1f4c1d71f8919762fb57ce0b7aaa6fe7efd74edc" );
    ("dp", "646d14da18cb58248220280a7e7bbad385cbdd612b8f344f7cebfb23262475aa");
    ( "pipeline",
      "07cfc466a4d89222122be7d5c24214c1fd4a1a7c9c60aa9bb840ce6fe64ce245" );
  ]

(* The bundle `entangle cert export <name> --no-cache` writes, from a
   process of its own. A bundle exported in this process can differ: a
   relation lists a replicated tensor's leaf mappings in its e-class's
   node order, and that order depends on the tensor ids the process
   handed out before the check. *)
let cli_bundle name =
  let out = Filename.temp_file "entangle-pin" ".cert" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      Test_cache.run_cli [ "cert"; "export"; name; "--no-cache"; "--out"; out ];
      In_channel.with_open_bin out In_channel.input_all)

(* SHA-256 of the full relation `relation_pin.exe <entry>` prints: the
   cold-search entries where dropping unconnected seeds saves the most,
   so relation drift there shows even when every counter holds. *)
let pinned_relations =
  [
    ( "gpt-d8l4",
      "50d9c517165bb531df17cc878102882bc2d786a14d1e66e65f1dcbba14a9bdfb" );
    ( "llama-d8l2",
      "b2e6f3f4e07f1f83ec5e1ecb9bb6bd9ab9f9bfcc1c415fdec6bdb0e396f673bc" );
    ( "qwen2-d4l2",
      "f782737db173582d765c02ea9ce58b127f2c4c1dcc1b260351b16601d919b983" );
    ( "moe-d4",
      "f98e4472361847d583c2ad3618ce6aad0eb090f1b0ea153950b59a62dae8f100" );
  ]

(* What `relation_pin.exe <label>` prints, from a process of its own
   (relation order depends on the tensor ids handed out before the
   check). *)
let relation_digest label =
  let ic =
    Unix.open_process_args_in "./relation_pin.exe"
      [| "relation_pin.exe"; label |]
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> String.trim out
  | _ -> Alcotest.failf "%s: relation_pin.exe failed" label

(* --- round trip --------------------------------------------------------- *)

let roundtrip_tests =
  [
    Alcotest.test_case "export -> parse preserves id and statement" `Quick
      (fun () ->
        let b = Lazy.force reference in
        match Bundle.of_string (Lazy.force reference_text) with
        | Error e -> Alcotest.failf "re-parse: %a" Cert_error.pp e
        | Ok b' ->
            check Alcotest.string "id" (Bundle.id b) (Bundle.id b');
            check
              Alcotest.(list (pair string string))
              "statement fingerprints"
              (Bundle.statement_fields (Bundle.statement b))
              (Bundle.statement_fields (Bundle.statement b'));
            check Alcotest.string "producer" b.Bundle.producer
              b'.Bundle.producer;
            check Alcotest.int "operator entries"
              (List.length b.Bundle.operators)
              (List.length b'.Bundle.operators));
    Alcotest.test_case "exported bundle passes the minimal verifier" `Quick
      (fun () ->
        match Verify.check_string (Lazy.force reference_text) with
        | Error e -> Alcotest.failf "verify: %a" Cert_error.pp e
        | Ok r ->
            check Alcotest.string "report id"
              (Bundle.id (Lazy.force reference))
              r.Verify.id;
            check Alcotest.bool "operators checked" true (r.Verify.operators > 0);
            check Alcotest.bool "outputs replayed" true
              (r.Verify.outputs_checked > 0);
            check Alcotest.bool "expressions evaluated" true
              (r.Verify.exprs_replayed > 0));
    Alcotest.test_case "every refining zoo entry exports a verifying bundle"
      `Slow (fun () ->
        List.iter
          (fun name ->
            let pinned = List.assoc_opt name pinned_bundles in
            match export (Option.get (Zoo.by_name name)) with
            | None ->
                if pinned <> None then
                  Alcotest.failf "%s: no longer refines, but its bundle is \
                                  pinned" name
            | Some b -> (
                (match Verify.check_string (Bundle.to_string b) with
                | Ok r ->
                    check Alcotest.bool (name ^ ": operators checked") true
                      (r.Verify.operators > 0)
                | Error e -> Alcotest.failf "%s: %a" name Cert_error.pp e);
                let digest = Entangle_fingerprint.Sha256.hex (cli_bundle name) in
                match pinned with
                | Some d when String.equal d digest -> ()
                | Some d ->
                    Alcotest.failf "%s: bundle SHA-256 is %s, pinned %s" name
                      digest d
                | None ->
                    Alcotest.failf "%s: bundle SHA-256 %s is not pinned" name
                      digest))
          Zoo.names);
    Alcotest.test_case "large cold-search entries keep their pinned relations"
      `Slow (fun () ->
        List.iter
          (fun (label, pinned) ->
            let digest = relation_digest label in
            if not (String.equal digest pinned) then
              Alcotest.failf "%s: relation SHA-256 is %s, pinned %s" label
                digest pinned)
          pinned_relations);
    Alcotest.test_case "serialization is deterministic" `Quick (fun () ->
        let b = Lazy.force reference in
        check Alcotest.string "same bytes" (Bundle.to_string b)
          (Bundle.to_string b));
    Alcotest.test_case "sound hand-built bundle verifies" `Quick (fun () ->
        match Verify.check (tiny_bundle (tiny ())) with
        | Ok r -> check Alcotest.int "one output" 1 r.Verify.outputs_checked
        | Error e -> Alcotest.failf "tiny bundle rejected: %a" Cert_error.pp e);
  ]

(* --- the tamper matrix -------------------------------------------------- *)

let tamper_tests =
  [
    Alcotest.test_case "truncation is CERT001" `Quick (fun () ->
        let text = Lazy.force reference_text in
        check Alcotest.string "half the bytes" "CERT001"
          (code_of (String.sub text 0 (String.length text / 2)));
        check Alcotest.string "empty" "CERT001" (code_of "");
        check Alcotest.string "unbalanced" "CERT001" (code_of "(entangle-cert"));
    Alcotest.test_case "foreign document is CERT001" `Quick (fun () ->
        check Alcotest.string "wrong header" "CERT001"
          (code_of "(something-else (schema 1))"));
    Alcotest.test_case "version skew is CERT002" `Quick (fun () ->
        let text = Lazy.force reference_text in
        check Alcotest.string "future schema" "CERT002"
          (code_of (replace_first text "(schema 1)" "(schema 99)")));
    Alcotest.test_case "structural damage is CERT003" `Quick (fun () ->
        check Alcotest.string "manifest without statement" "CERT003"
          (code_of "(entangle-cert (schema 1) (producer x) (manifest (id h)))"));
    Alcotest.test_case "section bit-flip is CERT004" `Quick (fun () ->
        (* flip one digit inside a section payload: the per-section
           content digest must notice a single byte *)
        let text = Lazy.force reference_text in
        match find_sub text "(section relations" with
        | None -> Alcotest.fail "no relations section in reference bundle"
        | Some i ->
            let rec digit j =
              if j >= String.length text then
                Alcotest.fail "no digit in relations section"
              else
                match text.[j] with '0' .. '9' -> j | _ -> digit (j + 1)
            in
            let j = digit (i + String.length "(section relations") in
            let flipped =
              mutate_at j
                (fun c -> if c = '9' then '8' else Char.chr (Char.code c + 1))
                text
            in
            check Alcotest.string "payload digit flipped" "CERT004"
              (code_of flipped));
    Alcotest.test_case "statement rebinding is CERT005" `Quick (fun () ->
        (* alter one hex digit of the manifest's gs fingerprint: every
           section still digests clean, but the bundle now claims to
           certify a different statement *)
        let text = Lazy.force reference_text in
        match find_sub text "(statement" with
        | None -> Alcotest.fail "no statement in reference bundle"
        | Some i -> (
            let rest = String.sub text i (String.length text - i) in
            match find_sub rest "(gs " with
            | None -> Alcotest.fail "no gs fingerprint"
            | Some off ->
                let rebound =
                  mutate_at
                    (i + off + 4)
                    (fun c -> if c = '0' then '1' else '0')
                    text
                in
                check Alcotest.string "gs fingerprint altered" "CERT005"
                  (code_of rebound)));
    Alcotest.test_case "single-byte corruption never aliases to acceptance"
      `Quick (fun () ->
        (* a sweep of single-byte mutations across the bundle: whatever
           the byte hits — framing, a digest, a section payload, even
           inter-token whitespace — the result must be rejected with
           some CERT code, never accepted *)
        let text = Lazy.force reference_text in
        let n = String.length text in
        List.iter
          (fun percent ->
            let pos = n * percent / 100 in
            let mutated =
              mutate_at pos (fun c -> if c = 'x' then 'y' else 'x') text
            in
            if mutated <> text then
              check Alcotest.bool
                (Fmt.str "byte %d/%d rejected" pos n)
                true
                (code_of mutated <> "accepted"))
          [ 5; 15; 25; 35; 45; 55; 65; 75; 85; 95 ]);
  ]

(* --- the minimal verifier's semantic checks ------------------------------ *)

let verifier_tests =
  [
    Alcotest.test_case "missing operator entry is CERT006" `Quick (fun () ->
        expect_code "no operator entries" "CERT006"
          (Verify.check (tiny_bundle ~operators:[] (tiny ()))));
    Alcotest.test_case "operator entry with no mappings is CERT006" `Quick
      (fun () ->
        expect_code "empty mapping list" "CERT006"
          (Verify.check
             (tiny_bundle
                ~operators:[ { Bundle.op_output = "y"; op_mappings = [] } ]
                (tiny ()))));
    Alcotest.test_case "unbound env symbol is CERT006" `Quick (fun () ->
        (* the same pair over a symbolic dimension: sound with n bound,
           incomplete with the env stripped *)
        let t = tiny ~dim:(Entangle_symbolic.Symdim.sym "n") () in
        (match Verify.check (tiny_bundle ~env:[ ("n", 4) ] t) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "bound env rejected: %a" Cert_error.pp e);
        expect_code "env stripped" "CERT006"
          (Verify.check (tiny_bundle ~env:[] t)));
    Alcotest.test_case "5,000 missing names make a bounded CERT006" `Quick
      (fun () ->
        let t = tiny () in
        let bundle ?(env = []) gs =
          Bundle.make ~producer:"test-wide" ~gs ~gd:t.t_gd ~env ~inputs:[]
            ~outputs:[]
            ~operators:
              [ { Bundle.op_output = "y"; op_mappings = [ Expr.leaf t.t_yd ] } ]
            ()
        in
        expect_bounded "5,000 uncovered inputs" "CERT006"
          (Verify.check (bundle (wide_gs 5_000)));
        expect_bounded "5,000 unbound symbols" "CERT006"
          (Verify.check (bundle (wide_gs ~symbolic:true 5_000))));
    Alcotest.test_case "unclean mapping expression is CERT007" `Quick
      (fun () ->
        let t = tiny () in
        expect_code "add in an output mapping" "CERT007"
          (Verify.check
             (tiny_bundle
                ~outputs:
                  [
                    ( t.t_y,
                      [ Expr.app Op.Add [ Expr.leaf t.t_yd; Expr.leaf t.t_yd ] ]
                    );
                  ]
                t));
        expect_bounded "exp of a 5,000-leaf concat" "CERT007"
          (Verify.check
             (tiny_bundle
                ~outputs:
                  [ (t.t_y, [ Expr.app Op.Exp [ wide_concat 5_000 t.t_yd ] ]) ]
                t)));
    Alcotest.test_case "out-of-scope leaf is CERT008" `Quick (fun () ->
        let t = tiny () in
        let ghost =
          Tensor.create ~name:"ghost" [ Entangle_symbolic.Symdim.of_int 4 ]
        in
        expect_code "fabricated tensor in an output mapping" "CERT008"
          (Verify.check
             (tiny_bundle ~outputs:[ (t.t_y, [ Expr.leaf ghost ]) ] t));
        (* Thousands of long fabricated names: the detail names a few,
           each bounded, and counts the rest. *)
        let ghosts =
          List.init 5_000 (fun i ->
              Expr.leaf
                (Tensor.create
                   ~name:(Fmt.str "ghost%d_%s" i (String.make 300 'g'))
                   [ Entangle_symbolic.Symdim.of_int 4 ]))
        in
        let wide =
          tiny_bundle
            ~outputs:[ (t.t_y, [ Expr.app (Op.Concat { dim = 0 }) ghosts ]) ]
            t
        in
        expect_bounded "5,000 fabricated leaves" "CERT008" (Verify.check wide);
        expect_bounded "5,000 unknown names in bundle text" "CERT008"
          (Bundle.of_string (Bundle.to_string wide)));
    Alcotest.test_case "an axis out of range is CERT009, not an exception"
      `Quick (fun () ->
        let t = tiny () in
        expect_code "concat along axis 1 of a rank-1 tensor" "CERT009"
          (Verify.check
             (tiny_bundle
                ~operators:
                  [
                    {
                      Bundle.op_output = "y";
                      op_mappings =
                        [
                          Expr.app (Op.Concat { dim = 1 }) [ Expr.leaf t.t_yd ];
                        ];
                    };
                  ]
                t)));
    Alcotest.test_case "shape disagreement is CERT009" `Quick (fun () ->
        let t = tiny () in
        expect_code "output mapped to the shape-[8] concat" "CERT009"
          (Verify.check
             (tiny_bundle ~outputs:[ (t.t_y, [ Expr.leaf t.t_wd ]) ] t));
        expect_bounded "output mapped to a 5,000-leaf concat" "CERT009"
          (Verify.check
             (tiny_bundle
                ~outputs:[ (t.t_y, [ wide_concat 5_000 t.t_yd ]) ]
                t)));
    Alcotest.test_case "replicating incompatible inputs is CERT009" `Quick
      (fun () ->
        (* The input relation unions distributed inputs that appear as
           bare leaves of one mapping list into a replication group
           (transitively across bindings). If grouped tensors disagree
           on dtype, replay must reject the bundle with a precise code
           instead of reusing one member's generated value for a
           differently-typed tensor and crashing downstream. Shapes
           agree here, so the static per-target checks all pass; only
           the group-compatibility check can catch the mix. *)
        let sd = Entangle_symbolic.Symdim.of_int in
        let b = Graph.Builder.create "seq" in
        let x = Graph.Builder.input b "x" [ sd 4 ] in
        let y = Graph.Builder.add b ~name:"y" Op.Add [ x; x ] in
        Graph.Builder.output b y;
        let gs = Graph.Builder.finish b in
        let d = Graph.Builder.create "dist" in
        let xd = Graph.Builder.input d "xd" [ sd 4 ] in
        let zd = Graph.Builder.input d ~dtype:Dtype.I64 "zd" [ sd 4 ] in
        let yd = Graph.Builder.add d ~name:"yd" Op.Add [ xd; xd ] in
        Graph.Builder.output d yd;
        let gd = Graph.Builder.finish d in
        ignore zd;
        let bundle =
          Bundle.make ~producer:"test-replication" ~gs ~gd ~env:[]
            ~inputs:[ (x, [ Expr.leaf xd; Expr.leaf zd ]) ]
            ~outputs:[ (y, [ Expr.leaf yd ]) ]
            ~operators:
              [ { Bundle.op_output = "y"; op_mappings = [ Expr.leaf yd ] } ]
            ()
        in
        let result = Verify.check bundle in
        expect_code "float/int replication group" "CERT009" result;
        match result with
        | Ok _ -> assert false
        | Error e ->
            check Alcotest.bool "detail names the dtype disagreement" true
              (contains e.Cert_error.detail "dtypes differ"));
    Alcotest.test_case "numerically wrong certificate is CERT010" `Quick
      (fun () ->
        (* gd's yd is sub xd xd: same names, shapes and wiring as the
           sound variant, but replay values are zero where gs computes
           2x — only concrete replay can catch this *)
        let result = Verify.check (tiny_bundle (tiny ~sound:false ())) in
        expect_code "sub-for-add sabotage" "CERT010" result;
        match result with
        | Ok _ -> assert false
        | Error e ->
            check Alcotest.bool "detail names the failing output" true
              (contains e.Cert_error.detail "output y"));
    Alcotest.test_case "replay time is linear in a bundle's inputs" `Quick
      (fun () ->
        (* [k] sequential inputs, each bound to a distributed input of
           its own, and one sum over them. A scan per input made replay
           quadratic: 0.070 s at 2,000 inputs, 0.950 s at 8,000. *)
        let replay k =
          let shape = Shape.of_ints [ 2 ] in
          let s = Graph.Builder.create "wide-seq" in
          let d = Graph.Builder.create "wide-dist" in
          let xs =
            List.init k (fun i -> Graph.Builder.input s (Fmt.str "x%d" i) shape)
          in
          let xds =
            List.init k (fun i ->
                Graph.Builder.input d (Fmt.str "xd%d" i) shape)
          in
          let y = Graph.Builder.add s ~name:"y" Op.Sum_n xs in
          let yd = Graph.Builder.add d ~name:"yd" Op.Sum_n xds in
          Graph.Builder.output s y;
          Graph.Builder.output d yd;
          let gs = Graph.Builder.finish s and gd = Graph.Builder.finish d in
          let inputs = List.map2 (fun x xd -> (x, [ Expr.leaf xd ])) xs xds in
          fun () ->
            match
              Verify.replay ~env:(Interp.env_of_list []) ~gs ~gd ~inputs
                ~outputs:[ (y, [ Expr.leaf yd ]) ]
            with
            | Ok 1 -> ()
            | Ok n -> Alcotest.failf "%d expressions replayed" n
            | Error e -> Alcotest.failf "%a" Cert_error.pp e
        in
        (* The least time per input over five replays. *)
        let per_input k =
          let run = replay k in
          List.fold_left min infinity
            (List.init 5 (fun _ ->
                 let t0 = Unix.gettimeofday () in
                 run ();
                 Unix.gettimeofday () -. t0))
          /. float_of_int k
        in
        let base = per_input 2_000 in
        let wide = per_input 8_000 in
        if wide >= 2. *. base then
          Alcotest.failf "%.2f us per input at 8,000, %.2f us at 2,000"
            (wide *. 1e6) (base *. 1e6));
  ]

(* --- Certify.replay's mismatch accumulator ------------------------------- *)

(* Two independently wrong outputs: replay reports both in one
   message. *)
let certify_tests =
  let sd = Entangle_symbolic.Symdim.of_int in
  let build_pair ~sabotage () =
    let b = Graph.Builder.create "seq" in
    let x = Graph.Builder.input b "x" [ sd 4 ] in
    let y = Graph.Builder.add b ~name:"y" Op.Add [ x; x ] in
    let z = Graph.Builder.add b ~name:"z" Op.Mul [ x; x ] in
    Graph.Builder.output b y;
    Graph.Builder.output b z;
    let gs = Graph.Builder.finish b in
    let d = Graph.Builder.create "dist" in
    let xd = Graph.Builder.input d "xd" [ sd 4 ] in
    let op_y = if sabotage then Op.Sub else Op.Add in
    let op_z = if sabotage then Op.Sub else Op.Mul in
    let yd = Graph.Builder.add d ~name:"yd" op_y [ xd; xd ] in
    let zd = Graph.Builder.add d ~name:"zd" op_z [ xd; xd ] in
    Graph.Builder.output d yd;
    Graph.Builder.output d zd;
    let gd = Graph.Builder.finish d in
    let input_relation = Entangle.Relation.of_list [ (x, Expr.leaf xd) ] in
    let output_relation =
      Entangle.Relation.of_list [ (y, Expr.leaf yd); (z, Expr.leaf zd) ]
    in
    (gs, gd, input_relation, output_relation)
  in
  let count_mismatches message =
    (* each mismatch renders one "differs from the sequential value" *)
    let needle = "differs from the sequential value" in
    let rec go acc from =
      match
        find_sub (String.sub message from (String.length message - from)) needle
      with
      | None -> acc
      | Some i -> go (acc + 1) (from + i + String.length needle)
    in
    go 0 0
  in
  let replay (gs, gd, input_relation, output_relation) =
    Entangle.Certify.replay
      ~env:(Interp.env_of_list [])
      ~gs ~gd ~input_relation ~output_relation ()
  in
  [
    Alcotest.test_case "raised bound accumulates every mismatch" `Quick
      (fun () ->
        match replay (build_pair ~sabotage:true ()) with
        | Ok () -> Alcotest.fail "sabotaged relation replayed clean"
        | Error message ->
            check Alcotest.int "both mismatches reported" 2
              (count_mismatches message);
            check Alcotest.bool "messages joined with a separator" true
              (contains message "; "));
    Alcotest.test_case "sound relation still replays clean" `Quick (fun () ->
        match replay (build_pair ~sabotage:false ()) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "clean replay failed: %s" e);
  ]

let suite =
  [
    ("certexport.roundtrip", roundtrip_tests);
    ("certexport.tamper", tamper_tests);
    ("certexport.verifier", verifier_tests);
    ("certexport.certify", certify_tests);
  ]
