(* Tests for the certificate cache (lib/cache): fingerprint canonicity
   (stable across rebuilds, invariant under node-id renaming and
   independent-node reordering, distinct across the bug mutants), the
   on-disk store's durability contract (round-trip, version
   invalidation, corruption quarantine), and the end-to-end incremental
   re-checking guarantees — a warm re-check does zero saturation work
   and verdicts never depend on the cache. *)

open Entangle_models
module Trace = Entangle_trace
module Fp = Entangle_fingerprint.Fingerprint
module Store = Entangle_cache.Store
module Cache = Entangle_cache.Cache
module Failpoint = Entangle_failpoint.Failpoint

open Entangle_ir

let check = Alcotest.check

(* --- scratch stores ----------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let temp_counter = ref 0

let with_temp_dir f =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "entangle-test-cache.%d.%d" (Unix.getpid ()) !temp_counter)
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_temp_cache ?budget f =
  with_temp_dir (fun dir ->
      match Cache.create ~dir ?budget () with
      | Error e -> Alcotest.failf "cannot open temp cache: %s" e
      | Ok cache -> f cache)

(* --- fingerprint helpers ------------------------------------------------ *)

(* Rebuild a graph from scratch with entirely fresh tensor and node ids
   but identical names, shapes, dtypes and structure. Fingerprints must
   not see the difference — ids are process-global counters and two
   builds of the same model never share them. *)
let clone_graph g =
  let tbl = Hashtbl.create 16 in
  let fresh t =
    match Hashtbl.find_opt tbl (Tensor.id t :> int) with
    | Some t' -> t'
    | None ->
        let t' =
          Tensor.create ~dtype:(Tensor.dtype t) ~name:(Tensor.name t)
            (Tensor.shape t)
        in
        Hashtbl.add tbl (Tensor.id t :> int) t';
        t'
  in
  let inputs = List.map fresh (Graph.inputs g) in
  let nodes =
    List.map
      (fun n ->
        {
          Node.id = Node.id n + 10_000_000;
          op = Node.op n;
          inputs = List.map fresh (Node.inputs n);
          output = fresh (Node.output n);
        })
      (Graph.nodes g)
  in
  let outputs = List.map fresh (Graph.outputs g) in
  Graph.unsafe_make
    ~constraints:(Graph.constraints g)
    ~name:(Graph.name g) ~inputs ~outputs nodes

let graph_hex g = Fp.to_hex (Fp.graph (Fp.graph_env g))

(* The whole-graph fingerprint as it was computed before [Fp.graph]
   read node fingerprints from its caller's env: a second env, and
   every node hashed again over it, in [Fingerprint]'s framing. *)
let rehashed_graph_hex g =
  let env = Fp.graph_env g in
  let frame tag parts =
    Entangle_fingerprint.Sha256.hex
      (String.concat ""
         (tag :: List.map (fun p -> Fmt.str "/%d:%s" (String.length p) p) parts))
  in
  let sorted fps = List.sort String.compare (List.map Fp.to_hex fps) in
  frame "g"
    (Fp.to_hex (Fp.constraints (Graph.constraints g))
    :: (sorted (List.map (Fp.tensor env) (Graph.inputs g))
       @ ("|" :: sorted (List.map (Fp.tensor env) (Graph.outputs g)))
       @ ("|" :: sorted (List.map (Fp.node env) (Graph.nodes g)))))

(* A small DAG driven by a list of choice ints: each step applies a
   binary op to two previously-built tensors. Deterministic in the
   choices, so QCheck shrinking stays meaningful. *)
let build_fuzz_graph choices =
  let b = Graph.Builder.create "fuzz" in
  let x = Graph.Builder.input b "x" (Shape.of_ints [ 4; 4 ]) in
  let y = Graph.Builder.input b "y" (Shape.of_ints [ 4; 4 ]) in
  let tensors = ref [| x; y |] in
  List.iteri
    (fun i k ->
      let arr = !tensors in
      let n = Array.length arr in
      let a = arr.(abs k mod n) and c = arr.((abs k / 7) mod n) in
      let op =
        match abs k mod 3 with 0 -> Op.Add | 1 -> Op.Mul | _ -> Op.Maximum
      in
      let t = Graph.Builder.add b ~name:(Fmt.str "t%d" i) op [ a; c ] in
      tensors := Array.append arr [| t |])
    choices;
  let arr = !tensors in
  Graph.Builder.output b arr.(Array.length arr - 1);
  Graph.Builder.finish b

(* The SHA-256 [Sha256.hex] replaced, kept as the reference for its
   digests: every rotation masked, every array read checked. *)
module Reference_sha256 = struct
  let mask = 0xffffffff
  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
      0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
      0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
      0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
      0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
      0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

  let compress h w data base =
    for t = 0 to 15 do
      w.(t) <- Int32.to_int (Bytes.get_int32_be data (base + (4 * t))) land mask
    done;
    for t = 16 to 63 do
      let x = w.(t - 15) and y = w.(t - 2) in
      let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
      let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
    done;
    let a = ref h.(0)
    and b = ref h.(1)
    and c = ref h.(2)
    and d = ref h.(3)
    and e = ref h.(4)
    and f = ref h.(5)
    and g = ref h.(6)
    and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land mask
    done;
    h.(0) <- (h.(0) + !a) land mask;
    h.(1) <- (h.(1) + !b) land mask;
    h.(2) <- (h.(2) + !c) land mask;
    h.(3) <- (h.(3) + !d) land mask;
    h.(4) <- (h.(4) + !e) land mask;
    h.(5) <- (h.(5) + !f) land mask;
    h.(6) <- (h.(6) + !g) land mask;
    h.(7) <- (h.(7) + !hh) land mask

  let hex msg =
    let len = String.length msg in
    let h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |]
    in
    let w = Array.make 64 0 in
    let data = Bytes.of_string msg in
    let full = len / 64 * 64 in
    let base = ref 0 in
    while !base < full do
      compress h w data !base;
      base := !base + 64
    done;
    let rest = len - full in
    let tail = Bytes.make (if rest < 56 then 64 else 128) '\000' in
    Bytes.blit_string msg full tail 0 rest;
    Bytes.set tail rest '\x80';
    Bytes.set_int64_be tail (Bytes.length tail - 8) (Int64.of_int (len * 8));
    compress h w tail 0;
    if Bytes.length tail = 128 then compress h w tail 64;
    String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") h))
end

(* Its oracle: every message length 0-300, so every tail length on both
   sides of the one- or two-block padding, and a few of 1-100 KB. Bytes
   take every value, so words with the top bit set are read too. *)
let sha256_tests =
  [
    Alcotest.test_case "hex agrees with the reference compress" `Quick
      (fun () ->
        let message len =
          String.init len (fun i ->
              Char.chr (((i * 167) + (len * 31) + (i lsr 8)) land 0xff))
        in
        let agree len =
          let m = message len in
          check Alcotest.string
            (Fmt.str "%d bytes" len)
            (Reference_sha256.hex m) (Entangle_fingerprint.Sha256.hex m)
        in
        for len = 0 to 300 do
          agree len
        done;
        List.iter agree [ 1_000; 1_024; 4_095; 10_007; 65_536; 100_000 ]);
  ]

let fingerprint_tests =
  [
    Alcotest.test_case "sha256 matches the FIPS 180-4 vectors" `Quick
      (fun () ->
        (* The digest backing every fingerprint, cache key, section
           digest and bundle id is home-grown (the toolchain only ships
           MD5), so pin it to the published test vectors. *)
        let hex = Entangle_fingerprint.Sha256.hex in
        check Alcotest.string "empty"
          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
          (hex "");
        check Alcotest.string "abc"
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
          (hex "abc");
        check Alcotest.string "two blocks"
          "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
          (hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        (* exactly one byte short of the padding boundary, and exactly
           on it: the two framing edge cases *)
        check Alcotest.string "55 bytes"
          "85528b5baff5639cb8e7daca79d085ac29ac0978e873ed7527158616b2b6c379"
          (hex (String.make 55 'q'));
        check Alcotest.string "64 bytes"
          "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
          (hex (String.make 64 'a'));
        (* whole blocks are read in place and the tail is padded apart:
           a tail too long to hold the length field (56), one byte
           short of that after a whole block (119) and exactly at it
           (120), the FIPS 896-bit message (a block and a 48-byte
           tail), and a million bytes of whole blocks *)
        check Alcotest.string "56 bytes"
          "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"
          (hex (String.make 56 'a'));
        check Alcotest.string "119 bytes"
          "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"
          (hex (String.make 119 'a'));
        check Alcotest.string "120 bytes"
          "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"
          (hex (String.make 120 'a'));
        check Alcotest.string "896-bit message"
          "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
          (hex
             "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
        check Alcotest.string "a million bytes"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (hex (String.make 1_000_000 'a')));
    Alcotest.test_case "graph reads its env as rehashing every node would"
      `Quick (fun () ->
        let agree what g =
          check Alcotest.string what (rehashed_graph_hex g) (graph_hex g)
        in
        let both what (i : Instance.t) =
          agree (what ^ " gs") i.gs;
          agree (what ^ " gd") i.gd
        in
        List.iter
          (fun name -> Option.iter (both name) (Zoo.by_name name))
          Zoo.names;
        List.iter
          (fun (c : Bugs.case) -> both (Fmt.str "bug %d" c.id) c.instance)
          (Bugs.all ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:50
         ~name:"fuzz lowerings: graph reads its env as rehashing would"
         QCheck.(pair Test_fuzz.arbitrary_steps bool)
         (fun (steps, wide) ->
           let gs, gd, _ =
             Test_fuzz.build_pair steps ~degree:(if wide then 4 else 2)
           in
           List.for_all
             (fun g -> String.equal (rehashed_graph_hex g) (graph_hex g))
             [ gs; gd ]));
    Alcotest.test_case "stable across independent builds" `Quick (fun () ->
        let a = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
        let b = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
        check Alcotest.string "gs fingerprint" (graph_hex a.Instance.gs)
          (graph_hex b.Instance.gs);
        check Alcotest.string "gd fingerprint" (graph_hex a.Instance.gd)
          (graph_hex b.Instance.gd));
    Alcotest.test_case "invariant under independent-node reorder" `Quick
      (fun () ->
        (* A diamond: mul and max are independent, so both orders are
           topological and must fingerprint identically. *)
        let x = Tensor.create ~name:"x" (Shape.of_ints [ 2; 2 ]) in
        let m = Tensor.create ~name:"m" (Shape.of_ints [ 2; 2 ]) in
        let n = Tensor.create ~name:"n" (Shape.of_ints [ 2; 2 ]) in
        let z = Tensor.create ~name:"z" (Shape.of_ints [ 2; 2 ]) in
        let mul = { Node.id = -1; op = Op.Mul; inputs = [ x; x ]; output = m } in
        let max_ =
          { Node.id = -2; op = Op.Maximum; inputs = [ x; x ]; output = n }
        in
        let add = { Node.id = -3; op = Op.Add; inputs = [ m; n ]; output = z } in
        let g order =
          Graph.unsafe_make ~name:"diamond" ~inputs:[ x ] ~outputs:[ z ]
            (order @ [ add ])
        in
        check Alcotest.string "reorder" (graph_hex (g [ mul; max_ ]))
          (graph_hex (g [ max_; mul ])));
    Alcotest.test_case "renaming a tensor changes the fingerprint" `Quick
      (fun () ->
        let g name =
          let b = Graph.Builder.create "g" in
          let x = Graph.Builder.input b "x" (Shape.of_ints [ 2 ]) in
          let t = Graph.Builder.add b ~name Op.Relu [ x ] in
          Graph.Builder.output b t;
          Graph.Builder.finish b
        in
        if String.equal (graph_hex (g "a")) (graph_hex (g "b")) then
          Alcotest.fail "rename did not change the fingerprint");
    Alcotest.test_case "distinct across the bug-zoo mutants" `Quick (fun () ->
        (* Every buggy distributed graph must key differently from every
           other and from the fixed pad/slice implementation; colliding
           keys would let one bug's verdict answer for another. *)
        let fps =
          ("pad_slice_fixed",
           graph_hex (Bugs.pad_slice_model ~buggy:false).Instance.gd)
          :: List.map
               (fun (c : Bugs.case) ->
                 (Fmt.str "bug-%d" c.id, graph_hex c.instance.Instance.gd))
               (Bugs.all ())
        in
        List.iteri
          (fun i (ni, fi) ->
            List.iteri
              (fun j (nj, fj) ->
                if i < j && String.equal fi fj then
                  Alcotest.failf "fingerprint collision: %s = %s" ni nj)
              fps)
          fps);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:50
         ~name:"fingerprints invariant under fresh tensor/node ids"
         QCheck.(list_of_size (QCheck.Gen.int_range 1 10) small_int)
         (fun choices ->
           let g = build_fuzz_graph choices in
           let g' = clone_graph g in
           if not (String.equal (graph_hex g) (graph_hex g')) then
             QCheck.Test.fail_reportf "clone changed whole-graph fingerprint";
           let env = Fp.graph_env g and env' = Fp.graph_env g' in
           List.for_all2
             (fun n n' ->
               Fp.equal (Fp.node env n) (Fp.node env' n')
               && Fp.equal
                    (Fp.tensor env (Node.output n))
                    (Fp.tensor env' (Node.output n')))
             (Graph.nodes g) (Graph.nodes g')));
  ]

(* --- store durability --------------------------------------------------- *)

let open_store dir =
  match Store.open_ ~dir () with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_: %s" e

let entry_file dir key =
  (* objects/<2-hex-shard>/<key>, as documented in store.mli. *)
  Filename.concat
    (Filename.concat (Filename.concat dir "objects") (String.sub key 0 2))
    key

let rewrite path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* A pack as store.mli lays it out: the version line, then per entry
   its key, payload length and payload, each ending in a newline. *)
let pack entries =
  Store.version ^ "\n"
  ^ String.concat ""
      (List.map
         (fun (key, payload) ->
           Fmt.str "%s\n%d\n%s\n" key (String.length payload) payload)
         entries)

(* Every key under objects/, sorted. *)
let store_keys dir =
  let objects = Filename.concat dir "objects" in
  List.sort compare
    (List.concat_map
       (fun shard -> Array.to_list (Sys.readdir (Filename.concat objects shard)))
       (Array.to_list (Sys.readdir objects)))

(* The distinct inodes the keys' links name. *)
let inodes dir keys =
  List.sort_uniq compare
    (List.map (fun key -> (Unix.stat (entry_file dir key)).Unix.st_ino) keys)

let three () =
  [
    (String.make 32 'a', "alpha");
    (String.make 32 'b', "beta\nwith a line");
    (String.make 32 'c', "gamma");
  ]

let put_all_exn s entries =
  match Store.put_all s entries with
  | Ok bytes -> bytes
  | Error e -> Alcotest.failf "put_all: %s" e

let backdate dir key seconds_ago =
  let t = Unix.gettimeofday () -. seconds_ago in
  Unix.utimes (entry_file dir key) t t

let store_tests =
  [
    Alcotest.test_case "round-trip across re-open" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let key = String.make 32 'a' in
            (match Store.put s ~key "payload\nwith lines" with
            | Ok () -> ()
            | Error e -> Alcotest.failf "put: %s" e);
            check Alcotest.(option string) "same handle"
              (Some "payload\nwith lines") (Store.get s ~key);
            let s2 = open_store dir in
            check Alcotest.(option string) "re-opened handle"
              (Some "payload\nwith lines") (Store.get s2 ~key);
            check Alcotest.(option string) "absent key" None
              (Store.get s2 ~key:(String.make 32 'b'));
            check Alcotest.int "one entry" 1 (Store.stats s2).Store.entries));
    Alcotest.test_case "version mismatch invalidates silently" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let key = String.make 32 'c' in
            (match Store.put s ~key "old payload" with
            | Ok () -> ()
            | Error e -> Alcotest.failf "put: %s" e);
            (* Rewrite the entry under a future format version. *)
            let path = entry_file dir key in
            let oc = open_out path in
            output_string oc ("entangle-cache/999\n" ^ key ^ "\npayload");
            close_out oc;
            check Alcotest.(option string) "stale entry is a miss" None
              (Store.get s ~key);
            check Alcotest.bool "stale file removed" false (Sys.file_exists path);
            check Alcotest.int "nothing quarantined" 0
              (Store.stats s).Store.quarantined));
    Alcotest.test_case "corrupt entry is quarantined" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let key = String.make 32 'd' in
            (match Store.put s ~key "good payload" with
            | Ok () -> ()
            | Error e -> Alcotest.failf "put: %s" e);
            let path = entry_file dir key in
            let oc = open_out path in
            output_string oc "not a cache entry at all";
            close_out oc;
            check Alcotest.(option string) "corrupt entry is a miss" None
              (Store.get s ~key);
            check Alcotest.bool "damaged file moved out" false
              (Sys.file_exists path);
            check Alcotest.int "quarantined" 1 (Store.stats s).Store.quarantined;
            (* The store keeps working after quarantining damage. *)
            let key2 = String.make 32 'e' in
            (match Store.put s ~key:key2 "second" with
            | Ok () -> ()
            | Error e -> Alcotest.failf "put after quarantine: %s" e);
            check Alcotest.(option string) "store still usable" (Some "second")
              (Store.get s ~key:key2)));
    Alcotest.test_case "clear removes every entry" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            List.iter
              (fun c ->
                match Store.put s ~key:(String.make 32 c) "x" with
                | Ok () -> ()
                | Error e -> Alcotest.failf "put: %s" e)
              [ '0'; '1'; '2' ];
            check Alcotest.int "cleared" 3 (Store.clear s);
            check Alcotest.int "empty" 0 (Store.stats s).Store.entries));
    Alcotest.test_case "a three-entry pack's bytes count once" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let entries = three () in
            let bytes = put_all_exn s entries in
            let key0 = fst (List.hd entries) in
            let size = (Unix.stat (entry_file dir key0)).Unix.st_size in
            check Alcotest.int "put_all reports the pack's size" size bytes;
            let st = Store.stats s in
            check Alcotest.int "three entries" 3 st.Store.entries;
            check Alcotest.int "the pack counted once" size st.Store.bytes;
            (* One link gone: the pack's bytes stay until its last. *)
            Sys.remove (entry_file dir key0);
            let st = Store.stats s in
            check Alcotest.int "two entries" 2 st.Store.entries;
            check Alcotest.int "bytes held by the other links" size
              st.Store.bytes;
            (* The ceiling is inclusive at exactly one pack's size. *)
            let r =
              Store.gc ~budget:{ Store.max_bytes = Some size; max_age_s = None } s
            in
            check Alcotest.int "nothing evicted at the ceiling" 0 r.Store.evicted;
            check Alcotest.int "both links kept" 2 r.Store.remaining_entries;
            let r =
              Store.gc
                ~budget:{ Store.max_bytes = Some (size - 1); max_age_s = None }
                s
            in
            check Alcotest.int "one byte under evicts every link" 2
              r.Store.evicted;
            check Alcotest.int "and frees the pack once" size r.Store.freed_bytes;
            check Alcotest.int "nothing left" 0 r.Store.remaining_bytes;
            check Alcotest.int "no entries" 0 (Store.stats s).Store.entries));
    Alcotest.test_case "a damaged link is quarantined, its siblings read on"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let entries = three () in
            ignore (put_all_exn s entries);
            let (ka, _), (kb, _), (kc, pc) =
              match entries with
              | [ a; b; c ] -> (a, b, c)
              | _ -> assert false
            in
            (* ka: its link replaced by junk; kb: by a well-formed pack
               that does not hold kb. *)
            Sys.remove (entry_file dir ka);
            rewrite (entry_file dir ka) "not a pack";
            Sys.remove (entry_file dir kb);
            rewrite (entry_file dir kb) (pack [ (kc, pc) ]);
            check Alcotest.(option string) "junk link misses" None
              (Store.get s ~key:ka);
            check Alcotest.(option string) "foreign pack misses" None
              (Store.get s ~key:kb);
            check Alcotest.int "both links quarantined" 2
              (Store.stats s).Store.quarantined;
            check Alcotest.(option string) "the sibling reads on" (Some pc)
              (Store.get s ~key:kc)));
    Alcotest.test_case "a pack rewritten in place after a read is read again"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let ka = String.make 32 'a' and kb = String.make 32 'b' in
            ignore (put_all_exn s [ (ka, "alpha"); (kb, "beta") ]);
            check Alcotest.(option string) "first read" (Some "alpha")
              (Store.get s ~key:ka);
            (* Same inode, same size, new bytes; a backdated mtime keeps
               the rewrite visible on filesystems with coarse clocks. *)
            rewrite (entry_file dir ka) (pack [ (ka, "ALPHA"); (kb, "BETA") ]);
            backdate dir ka 100.;
            check Alcotest.(option string) "the rewrite, not the memo"
              (Some "BETA") (Store.get s ~key:kb)));
    Alcotest.test_case "a refused link falls back to a pack per entry" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let entries = three () in
            (* The first link succeeds, the second is refused: the rest
               are written one pack each. *)
            Failpoint.with_armed "store.link" (Failpoint.Nth 2) (fun () ->
                ignore (put_all_exn s entries));
            let keys = List.map fst entries in
            check Alcotest.int "three inodes" 3 (List.length (inodes dir keys));
            let fresh = open_store dir in
            List.iter
              (fun (key, payload) ->
                check Alcotest.(option string) "reads back" (Some payload)
                  (Store.get fresh ~key))
              entries;
            check Alcotest.int "no staging left" 0
              (Array.length (Sys.readdir (Filename.concat dir "tmp")))));
  ]

(* --- incremental re-checking ------------------------------------------- *)

(* The [cache.recheck] suite is what `dune build @cache-smoke` runs. *)

let check_with ?cache ?(collect = false) ?(config = Entangle.Config.default)
    inst =
  let collector = if collect then Some (Trace.Collect.create ()) else None in
  let config =
    config
    |> Entangle.Config.with_cache cache
    |> Entangle.Config.with_trace
         (match collector with
         | Some c -> Trace.Collect.sink c
         | None -> Trace.Sink.null)
  in
  let result = Instance.check ~config inst in
  let events =
    match collector with Some c -> Trace.Collect.events c | None -> []
  in
  (result, events)

let result_stats = function
  | Ok (s : Entangle.Refine.success) -> s.stats
  | Error (f : Entangle.Refine.failure) -> f.stats

(* The comparison the zoo/bugs agreement tests use: verdict class plus
   the localized operator — everything a user acts on. *)
let verdict_summary = function
  | Ok (s : Entangle.Refine.success) ->
      Fmt.str "refines: %a" Entangle.Relation.pp s.output_relation
  | Error (f : Entangle.Refine.failure) ->
      Fmt.str "FAILED at %s: %s"
        (Op.name (Node.op f.operator))
        (match f.verdict with
        | Entangle.Refine.Unmapped _ -> "unmapped"
        | Entangle.Refine.Inconclusive _ -> "inconclusive"
        | Entangle.Refine.Internal _ -> "internal")

(* SHA-256 of the sorted key names `entangle verify <model> --cache-dir
   D` leaves under D/objects, one per line (gpt stores 26 keys, llama
   47). A change that moves keys makes every existing store miss once:
   it must say so, and update the table. *)
let pinned_keys =
  [
    ("gpt", "560ba347caf029ffb1393690977ba479f58bbe31668aa7e093f13a50fe0ce8ed");
    ( "llama",
      "caa5f9e1bf29f9184df9d18b840b3739c88c83ede06ccace74393f73441bbf39" );
  ]

(* Run the CLI in a process of its own, as a user would, standard
   error discarded; its exit code (-1 if a signal ended it) and
   standard output. *)
let cli_output args =
  let cli = "../bin/entangle_cli.exe" in
  let out = Filename.temp_file "entangle-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      let pid =
        Fun.protect
          ~finally:(fun () ->
            Unix.close fd;
            Unix.close null)
          (fun () ->
            Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin fd
              null)
      in
      let rec wait () =
        try snd (Unix.waitpid [] pid)
        with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      let code = match wait () with Unix.WEXITED c -> c | _ -> -1 in
      (code, In_channel.with_open_bin out In_channel.input_all))

(* Fail unless the CLI exits 0 on [args]. *)
let run_cli args =
  match cli_output args with
  | 0, _ -> ()
  | _ -> Alcotest.failf "%s failed" (String.concat " " args)

let recheck_tests =
  [
    Alcotest.test_case "warm GPT re-check does zero saturation work" `Quick
      (fun () ->
        with_temp_cache (fun cache ->
            let build () = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
            let cold, _ = check_with ~cache (build ()) in
            let cs = result_stats cold in
            check Alcotest.int "cold run misses every operator"
              cs.Entangle.Refine.operators_processed
              cs.Entangle.Refine.cache_misses;
            let warm, events = check_with ~cache ~collect:true (build ()) in
            let ws = result_stats warm in
            (* The acceptance bar: asserted on the trace event stream,
               not just the derived stats — a warm run must emit no
               saturation activity at all. *)
            List.iter
              (fun (ev : Trace.Event.t) ->
                if
                  List.mem ev.Trace.Event.cat
                    [ "iteration"; "rule"; "egraph" ]
                then
                  Alcotest.failf "warm run emitted %s event %s"
                    ev.Trace.Event.cat ev.Trace.Event.name)
              events;
            check Alcotest.int "zero saturation iterations" 0
              ws.Entangle.Refine.saturation_iterations;
            check Alcotest.int "every operator a hit"
              ws.Entangle.Refine.operators_processed
              ws.Entangle.Refine.cache_hits;
            check Alcotest.int "no replay failures" 0
              ws.Entangle.Refine.cache_replays_failed;
            check Alcotest.string "same verdict and relation"
              (verdict_summary cold) (verdict_summary warm);
            match warm with
            | Error _ -> Alcotest.fail "warm GPT check failed"
            | Ok s ->
                check Alcotest.int "provenance covers every operator"
                  s.Entangle.Refine.stats.Entangle.Refine.operators_processed
                  (List.length s.Entangle.Refine.cache_provenance)));
    Alcotest.test_case "cached and uncached verdicts agree across the zoo"
      `Slow (fun () ->
        with_temp_cache (fun cache ->
            List.iter
              (fun name ->
                let inst () = Option.get (Zoo.by_name name) in
                let uncached, _ = check_with (inst ()) in
                let cold, _ = check_with ~cache (inst ()) in
                let warm, _ = check_with ~cache (inst ()) in
                check Alcotest.string
                  (Fmt.str "%s: cold agrees with uncached" name)
                  (verdict_summary uncached) (verdict_summary cold);
                check Alcotest.string
                  (Fmt.str "%s: warm agrees with uncached" name)
                  (verdict_summary uncached) (verdict_summary warm))
              Zoo.names));
    Alcotest.test_case "cached and uncached outcomes agree on every bug"
      `Slow (fun () ->
        with_temp_cache (fun cache ->
            let outcome o =
              match o with Bugs.Detected _ -> "detected" | Bugs.Missed -> "missed"
            in
            let cached_config =
              Entangle.Config.default |> Entangle.Config.with_cache (Some cache)
            in
            List.iter
              (fun (c : Bugs.case) ->
                let uncached = outcome (Bugs.run c) in
                let cold = outcome (Bugs.run ~config:cached_config c) in
                let warm = outcome (Bugs.run ~config:cached_config c) in
                check Alcotest.string (Fmt.str "bug %d cold" c.id) uncached cold;
                check Alcotest.string (Fmt.str "bug %d warm" c.id) uncached warm)
              (Bugs.all ())));
    Alcotest.test_case "a search-config change misses, and both keys coexist"
      `Quick (fun () ->
        with_temp_cache (fun cache ->
            let inst () = Regression.build ~microbatches:2 () in
            let first = Entangle.Config.default in
            let changed = Entangle.Config.with_escalation [ 2 ] first in
            let cold, _ = check_with ~cache ~config:first (inst ()) in
            let other, _ = check_with ~cache ~config:changed (inst ()) in
            let os = result_stats other in
            check Alcotest.int "changed config: no hits" 0
              os.Entangle.Refine.cache_hits;
            check Alcotest.int "changed config: one miss per operator"
              os.Entangle.Refine.operators_processed
              os.Entangle.Refine.cache_misses;
            check Alcotest.string "changed config: same verdict"
              (verdict_summary cold) (verdict_summary other);
            List.iter
              (fun (what, config) ->
                let warm, _ = check_with ~cache ~config (inst ()) in
                let ws = result_stats warm in
                check Alcotest.int
                  (what ^ " config re-checked: every operator a hit")
                  ws.Entangle.Refine.operators_processed
                  ws.Entangle.Refine.cache_hits)
              [ ("changed", changed); ("first", first) ]));
    Alcotest.test_case "with the frontier off, warm hits every operator"
      `Slow (fun () ->
        with_temp_cache (fun cache ->
            let config = Entangle.Config.no_frontier in
            let inst () = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
            let uncached, _ = check_with ~config (inst ()) in
            let cold, _ = check_with ~cache ~config (inst ()) in
            let cs = result_stats cold in
            check Alcotest.int "cold: no hits" 0 cs.Entangle.Refine.cache_hits;
            check Alcotest.int "cold: one miss per operator"
              cs.Entangle.Refine.operators_processed
              cs.Entangle.Refine.cache_misses;
            let warm, _ = check_with ~cache ~config (inst ()) in
            let ws = result_stats warm in
            check Alcotest.int "warm: every operator a hit"
              ws.Entangle.Refine.operators_processed
              ws.Entangle.Refine.cache_hits;
            check Alcotest.int "warm: zero saturation iterations" 0
              ws.Entangle.Refine.saturation_iterations;
            check Alcotest.string "warm: the uncached verdict"
              (verdict_summary uncached) (verdict_summary warm)));
    Alcotest.test_case "a cold check writes one pack linked under every key"
      `Quick (fun () ->
        with_temp_cache (fun cache ->
            let cold, _ = check_with ~cache (Option.get (Zoo.by_name "regression")) in
            let misses = (result_stats cold).Entangle.Refine.cache_misses in
            let keys = store_keys (Cache.dir cache) in
            check Alcotest.int "one key per miss" misses (List.length keys);
            check Alcotest.(list int) "one inode, one link per entry"
              [ misses ]
              (List.sort_uniq compare
                 (List.map
                    (fun key ->
                      (Unix.stat (entry_file (Cache.dir cache) key)).Unix.st_nlink)
                    keys));
            check Alcotest.int "one inode" 1
              (List.length (inodes (Cache.dir cache) keys));
            let fresh = open_store (Cache.dir cache) in
            List.iter
              (fun key ->
                if Store.get fresh ~key = None then
                  Alcotest.failf "a fresh handle misses %s" key)
              keys;
            check Alcotest.int "stats count every key" misses
              (Store.stats fresh).Store.entries));
    Alcotest.test_case "a cold check stores its entries once, after its operators"
      `Quick (fun () ->
        with_temp_cache (fun cache ->
            let cold, events =
              check_with ~cache ~collect:true
                (Option.get (Zoo.by_name "regression"))
            in
            let misses = (result_stats cold).Entangle.Refine.cache_misses in
            let indexed = List.mapi (fun i ev -> (i, ev)) events in
            let find p = List.filter (fun (_, ev) -> p ev) indexed in
            let stores =
              find (fun (ev : Trace.Event.t) ->
                  ev.name = "cache-store" && ev.phase = Trace.Event.End)
            in
            let last_operator =
              List.fold_left max (-1)
                (List.map fst
                   (find (fun (ev : Trace.Event.t) -> ev.cat = "operator")))
            in
            match stores with
            | [ (i, ev) ] ->
                check Alcotest.bool "after the last operator span" true
                  (i > last_operator);
                check Alcotest.(option int) "one entry per miss" (Some misses)
                  (Trace.Event.arg_int ev "entries");
                check Alcotest.bool "bytes written" true
                  (Option.value ~default:0 (Trace.Event.arg_int ev "bytes") > 0)
            | l -> Alcotest.failf "%d cache-store spans" (List.length l)));
    Alcotest.test_case "a deadline-stopped search is inconclusive, not cached"
      `Quick (fun () ->
        (* y = neg(x) against t = neg(xd), yd = identity(t). Loading the
           cone puts t, which is not a graph output, in y's class; a
           search stopped before identity-elim runs maps y, but not to
           an output of gd. *)
        let verify ?deadline cache =
          let shape = Shape.of_ints [ 4 ] in
          let bs = Graph.Builder.create "seq" in
          let x = Graph.Builder.input bs "x" shape in
          Graph.Builder.output bs (Graph.Builder.add bs ~name:"y" Op.Neg [ x ]);
          let bd = Graph.Builder.create "dist" in
          let xd = Graph.Builder.input bd "xd" shape in
          let t = Graph.Builder.add bd ~name:"t" Op.Neg [ xd ] in
          Graph.Builder.output bd
            (Graph.Builder.add bd ~name:"yd" Op.Identity [ t ]);
          let config =
            Entangle.Config.default
            |> Entangle.Config.with_cache cache
            |> Entangle.Config.with_op_deadline deadline
          in
          Entangle.Refine.exit_code
            (Entangle.Refine.check ~config ~gs:(Graph.Builder.finish bs)
               ~gd:(Graph.Builder.finish bd)
               ~input_relation:(Entangle.Relation.singleton x (Expr.leaf xd))
               ())
        in
        check Alcotest.int "no deadline refines" 0 (verify None);
        with_temp_cache (fun cache ->
            check Alcotest.int "a spent deadline is inconclusive" 2
              (verify ~deadline:0. (Some cache));
            let objects = Filename.concat (Cache.dir cache) "objects" in
            check Alcotest.bool "nothing stored" false
              (Sys.file_exists objects
              && Array.exists
                   (fun shard ->
                     Sys.readdir (Filename.concat objects shard) <> [||])
                   (Sys.readdir objects));
            check Alcotest.int "the same store, no deadline, refines" 0
              (verify (Some cache))));
    Alcotest.test_case "negative result is cached and replayed" `Quick
      (fun () ->
        (* Bug 3's Unmapped verdict saturates: provable absence must be
           served from the cache on the second run. *)
        with_temp_cache (fun cache ->
            let inst () = (Bugs.case 3).Bugs.instance in
            let cold, _ = check_with ~cache (inst ()) in
            let warm, _ = check_with ~cache (inst ()) in
            let ws = result_stats warm in
            check Alcotest.string "verdict stable" (verdict_summary cold)
              (verdict_summary warm);
            check Alcotest.bool "warm negative lookup hits" true
              (ws.Entangle.Refine.cache_hits > 0);
            check Alcotest.int "no saturation on warm negative" 0
              ws.Entangle.Refine.saturation_iterations));
    Alcotest.test_case "store damage degrades to a re-search" `Quick
      (fun () ->
        with_temp_cache (fun cache ->
            let inst () = Regression.build ~microbatches:2 () in
            let cold, _ = check_with ~cache (inst ()) in
            (* Garble every stored payload (keep well-formed packs that
               hold their keys, so the store layer accepts them and the
               failure lands in certificate replay). The entries share
               one pack, so each link is replaced by a pack of its own
               rather than rewritten through. *)
            let objects = Filename.concat (Cache.dir cache) "objects" in
            Array.iter
              (fun shard ->
                let sdir = Filename.concat objects shard in
                Array.iter
                  (fun key ->
                    let path = Filename.concat sdir key in
                    Sys.remove path;
                    rewrite path (pack [ (key, "(entry (garbage))") ]))
                  (Sys.readdir sdir))
              (Sys.readdir objects);
            let damaged, _ = check_with ~cache (inst ()) in
            let ds = result_stats damaged in
            check Alcotest.string "verdict survives damage"
              (verdict_summary cold) (verdict_summary damaged);
            check Alcotest.bool "replay failures recorded" true
              (ds.Entangle.Refine.cache_replays_failed > 0);
            check Alcotest.int "no hits from damaged store" 0
              ds.Entangle.Refine.cache_hits;
            (* The re-search repopulates: a further run hits again. *)
            let healed, _ = check_with ~cache (inst ()) in
            let hs = result_stats healed in
            check Alcotest.int "repopulated"
              hs.Entangle.Refine.operators_processed
              hs.Entangle.Refine.cache_hits));
    Alcotest.test_case "a parseable but wrong entry fails replay" `Quick
      (fun () ->
        let inst () = Regression.build ~microbatches:2 () in
        let gd = (inst ()).Instance.gd in
        let resolve = Serial.tensor_by_name gd in
        let non_output =
          List.find (fun t -> not (Graph.is_output gd t)) (Graph.inputs gd)
        in
        (* Each rewrites one stored entry's mapping lists into ones the
           grammar accepts and replay must refuse. *)
        let wrongs =
          [
            ( "a non-clean operator",
              fun maps outs ->
                (List.map (fun m -> Expr.app Op.Exp [ m ]) maps, outs) );
            ( "the wrong shape",
              fun maps outs ->
                ( List.map
                    (fun m -> Expr.app (Op.Concat { dim = 0 }) [ m; m ])
                    maps,
                  outs ) );
            ( "an output mapping over a non-output leaf",
              fun maps _ -> (maps, [ Expr.leaf non_output ]) );
          ]
        in
        let exprs sexps =
          List.map
            (fun sx ->
              match Serial.expr_of_sexp ~resolve sx with
              | Ok e -> e
              | Error e -> Alcotest.fail e)
            sexps
        in
        List.iter
          (fun (what, wrong) ->
            with_temp_cache (fun cache ->
                let cold, _ = check_with ~cache (inst ()) in
                let dir = Cache.dir cache in
                let key = List.hd (store_keys dir) in
                let maps, outs =
                  match
                    Option.map Sexp.of_string (Store.get (open_store dir) ~key)
                  with
                  | Some
                      (Ok
                        (Sexp.List
                          [
                            Sexp.Atom "entry";
                            Sexp.Atom "mapped";
                            Sexp.List maps;
                            Sexp.List outs;
                          ])) ->
                      wrong (exprs maps) (exprs outs)
                  | _ -> Alcotest.failf "%s: no mapped entry under %s" what key
                in
                let payload =
                  Sexp.to_string
                    (Sexp.list
                       [
                         Sexp.atom "entry";
                         Sexp.atom "mapped";
                         Sexp.list (List.map Serial.expr_to_sexp maps);
                         Sexp.list (List.map Serial.expr_to_sexp outs);
                       ])
                in
                if Result.is_error (Cache.validate_payload payload) then
                  Alcotest.failf "%s: the entry does not parse" what;
                let path = entry_file dir key in
                Sys.remove path;
                rewrite path (pack [ (key, payload) ]);
                let again, _ = check_with ~cache (inst ()) in
                let st = result_stats again in
                check Alcotest.int (what ^ ": one replay failure") 1
                  st.Entangle.Refine.cache_replays_failed;
                check Alcotest.int (what ^ ": every other operator hits")
                  (st.Entangle.Refine.operators_processed - 1)
                  st.Entangle.Refine.cache_hits;
                check Alcotest.string (what ^ ": the cold verdict")
                  (verdict_summary cold) (verdict_summary again)))
          wrongs);
    Alcotest.test_case "a fresh CLI process stores the pinned keys" `Quick
      (fun () ->
        List.iter
          (fun (model, pinned) ->
            with_temp_dir (fun dir ->
                run_cli [ "verify"; model; "--cache-dir"; dir ];
                let digest =
                  Entangle_fingerprint.Sha256.hex
                    (String.concat ""
                       (List.map (fun k -> k ^ "\n") (store_keys dir)))
                in
                if not (String.equal digest pinned) then
                  Alcotest.failf "%s: the stored keys hash to %s, pinned %s"
                    model digest pinned))
          pinned_keys);
  ]

(* --- key derivation -------------------------------------------------------- *)

(* The seeds [Refine.check] derives for operator [v]: the mappings of
   [v]'s inputs and of every sequential graph input. Read off the final
   relation they are the ones the check saw, since a check only adds
   entries for operator outputs. *)
let seeds_for gs relation v =
  List.filter
    (fun (t, _) ->
      List.exists (Tensor.equal t) (Node.inputs v) || Graph.is_input gs t)
    (Entangle.Relation.bindings relation)

let key_context ?(whole_graph = false) ?rules cache (inst : Instance.t) =
  let rules =
    match rules with
    | Some rules -> rules
    | None -> Entangle_lemmas.Registry.rules_for_model inst.Instance.family
  in
  match
    Cache.context cache ~config_fp:"test" ~whole_graph ~rules
      ~gs:inst.Instance.gs ~gd:inst.Instance.gd
  with
  | Some ctx -> ctx
  | None -> Alcotest.fail "no cache context"

let full_relation inst =
  match Instance.check inst with
  | Ok s -> s.Entangle.Refine.full_relation
  | Error _ -> Alcotest.fail "the model does not refine"

(* Every operator's key, in graph order, on one context. *)
let keys_of ?whole_graph ?rules cache inst relation =
  let ctx = key_context ?whole_graph ?rules cache inst in
  List.map
    (fun v -> Cache.key ctx ~seeds:(seeds_for inst.Instance.gs relation v) v)
    (Graph.nodes inst.Instance.gs)

let key_tests =
  let gpt () = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
  [
    Alcotest.test_case "keys are stable across independent builds" `Quick
      (fun () ->
        with_temp_cache (fun cache ->
            let a = gpt () and b = gpt () in
            List.iter
              (fun whole_graph ->
                check
                  Alcotest.(list string)
                  (Fmt.str "per-operator keys (whole graph: %b)" whole_graph)
                  (keys_of ~whole_graph cache a (full_relation a))
                  (keys_of ~whole_graph cache b (full_relation b)))
              [ false; true ]));
    Alcotest.test_case "the lemma corpus is in every key" `Quick (fun () ->
        with_temp_cache (fun cache ->
            let inst = gpt () in
            let relation = full_relation inst in
            let rules =
              Entangle_lemmas.Registry.rules_for_model inst.Instance.family
            in
            (* the same records in another order: a corpus of the same
               length that the remembered fingerprint must not answer *)
            let swapped =
              match rules with a :: b :: rest -> b :: a :: rest | rs -> rs
            in
            let before = keys_of ~rules cache inst relation in
            let after = keys_of ~rules:swapped cache inst relation in
            List.iteri
              (fun i (k, k') ->
                if String.equal k k' then
                  Alcotest.failf "operator %d keeps its key" i)
              (List.combine before after);
            check
              Alcotest.(list string)
              "and the first order keys as before" before
              (keys_of ~rules cache inst relation)));
    Alcotest.test_case "a sequential-input mapping is in every key" `Quick
      (fun () ->
        with_temp_cache (fun cache ->
            let inst = gpt () in
            let relation = full_relation inst in
            let gs = inst.Instance.gs in
            (* One graph input gains a mapping; keys do not check
               shapes, so any distributed tensor will do. *)
            let input = List.hd (Graph.inputs gs) in
            let other = List.hd (List.rev (Graph.inputs inst.Instance.gd)) in
            let edited =
              Entangle.Relation.add relation input (Expr.leaf other)
            in
            let before = keys_of cache inst relation in
            let after = keys_of cache inst edited in
            List.iteri
              (fun i (k, k') ->
                if String.equal k k' then
                  Alcotest.failf "operator %d keeps its key" i)
              (List.combine before after)));
    Alcotest.test_case "the per-check seed digest tracks its inputs" `Quick
      (fun () ->
        with_temp_cache (fun cache ->
            let inst = gpt () in
            let relation = full_relation inst in
            let gs = inst.Instance.gs in
            let ctx = key_context cache inst in
            let v = List.nth (Graph.nodes gs) 3 in
            let seeds = seeds_for gs relation v in
            let key seeds = Cache.key ctx ~seeds v in
            let k = key seeds in
            (* equal, physically distinct mapping lists *)
            let copy = List.map (fun (t, es) -> (t, List.map Fun.id es)) seeds in
            check Alcotest.string "a copied seed list keys the same" k
              (key copy);
            check Alcotest.string "and the original again" k (key seeds);
            (* after that memo hit, one graph input gains a mapping *)
            let input = List.hd (Graph.inputs gs) in
            let other = List.hd (List.rev (Graph.inputs inst.Instance.gd)) in
            let edited =
              List.map
                (fun (t, es) ->
                  if Tensor.equal t input then (t, es @ [ Expr.leaf other ])
                  else (t, es))
                seeds
            in
            check Alcotest.bool "a changed graph-input mapping changes the key"
              false
              (String.equal k (key edited));
            check Alcotest.string "and the original keys as before" k
              (key seeds)));
  ]

(* --- the cone ------------------------------------------------------------- *)

(* The reference: the frontier loop's wave fixpoint, which scans every
   distributed node once per wave and loads, in graph order, those whose
   inputs are all reached. *)
let wave_cone gd ~anchors =
  let t_rel = ref anchors and explored = Hashtbl.create 64 in
  let rec waves () =
    let frontier =
      List.filter
        (fun n ->
          (not (Hashtbl.mem explored (Node.id n)))
          && List.for_all (fun t -> Tensor.Set.mem t !t_rel) (Node.inputs n))
        (Graph.nodes gd)
    in
    if frontier = [] then []
    else begin
      List.iter
        (fun n ->
          Hashtbl.replace explored (Node.id n) ();
          t_rel := Tensor.Set.add (Node.output n) !t_rel)
        frontier;
      frontier :: waves ()
    end
  in
  waves ()

(* A distributed graph with what the zoo lacks: a node without inputs,
   and nodes that use one tensor twice. *)
let odd_graph () =
  let shape = Shape.of_ints [ 2 ] in
  let t name = Tensor.create ~name shape in
  let x = t "x" and y = t "y" and k = t "k" and a = t "a" and b = t "b"
  and c = t "c" and d = t "d" in
  let node id op inputs output = { Node.id; op; inputs; output } in
  Graph.unsafe_make ~name:"odd" ~inputs:[ x; y ] ~outputs:[ d ]
    [
      node 0 Op.Relu [] k;
      node 1 Op.Mul [ x; x ] a;
      node 2 Op.Add [ a; k ] b;
      node 3 (Op.Concat { dim = 0 }) [ b; y; b; b ] c;
      node 4 Op.Add [ c; c ] d;
    ]

let cone_tests =
  let graphs =
    lazy
      (odd_graph ()
      :: List.map
           (fun name -> (Option.get (Zoo.by_name name)).Instance.gd)
           Zoo.names)
  in
  let ids waves = List.map (List.map Node.id) waves in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"the worklist cone is the wave loop's waves, in order"
         QCheck.(pair small_nat (list_of_size (QCheck.Gen.int_range 0 6) small_nat))
         (fun (g, picks) ->
           let graphs = Lazy.force graphs in
           let gd = List.nth graphs (g mod List.length graphs) in
           let tensors = Array.of_list (Graph.tensors gd) in
           let anchors =
             Tensor.Set.of_list
               (List.map (fun i -> tensors.(i mod Array.length tensors)) picks)
           in
           ids (Graph.cone gd ~anchors) = ids (wave_cone gd ~anchors)));
  ]

(* --- retention: budgets, eviction, expiry -------------------------------- *)

let put_exn s ~key payload =
  match Store.put s ~key payload with
  | Ok () -> ()
  | Error e -> Alcotest.failf "put: %s" e

let open_budgeted dir budget =
  match Store.open_ ~dir ~budget () with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_: %s" e

let retention_tests =
  [
    Alcotest.test_case "entry exactly at the byte budget is kept" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s0 = open_store dir in
            let key = String.make 32 'a' in
            put_exn s0 ~key "fits exactly";
            let size = (Unix.stat (entry_file dir key)).Unix.st_size in
            (* The ceiling is inclusive: a store holding exactly
               [max_bytes] evicts nothing. *)
            let s =
              open_budgeted dir
                { Store.max_bytes = Some size; max_age_s = None }
            in
            let r = Store.gc s in
            check Alcotest.int "no eviction at the ceiling" 0 r.Store.evicted;
            check Alcotest.int "entry kept" 1 r.Store.remaining_entries;
            check
              Alcotest.(option string)
              "still readable" (Some "fits exactly") (Store.get s ~key);
            (* Any growth past the ceiling sweeps the oldest out. *)
            backdate dir key 100.;
            put_exn s ~key:(String.make 32 'b') "fits";
            let st = Store.stats s in
            check Alcotest.int "sweep kept the newer entry" 1 st.Store.entries;
            check Alcotest.bool "back within budget" true
              (st.Store.bytes <= size);
            check
              Alcotest.(option string)
              "older entry evicted" None (Store.get s ~key)));
    Alcotest.test_case "age bound beats a racing hit" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s =
              open_budgeted dir
                { Store.max_bytes = None; max_age_s = Some 60. }
            in
            let old_key = String.make 32 'a'
            and fresh_key = String.make 32 'b' in
            put_exn s ~key:old_key "stale";
            put_exn s ~key:fresh_key "fresh";
            backdate dir old_key 3600.;
            (* The file is still on disk when the lookup arrives; the
               age bound must win over the would-be hit. *)
            check
              Alcotest.(option string)
              "expired entry misses despite the file existing" None
              (Store.get s ~key:old_key);
            check Alcotest.bool "expired file removed" false
              (Sys.file_exists (entry_file dir old_key));
            check Alcotest.int "counted expired" 1
              (Store.stats s).Store.expired_entries;
            check
              Alcotest.(option string)
              "fresh entry still hits" (Some "fresh")
              (Store.get s ~key:fresh_key)));
    Alcotest.test_case "a hit refreshes the eviction order" `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let ka = String.make 32 'a' and kb = String.make 32 'b' in
            put_exn s ~key:ka "payload a";
            put_exn s ~key:kb "payload b";
            backdate dir ka 100.;
            backdate dir kb 50.;
            (* ka is nominally older; reading it must flip the LRU
               order so kb becomes the victim. *)
            ignore (Store.get s ~key:ka);
            let size = (Unix.stat (entry_file dir ka)).Unix.st_size in
            let r =
              Store.gc
                ~budget:{ Store.max_bytes = Some size; max_age_s = None }
                s
            in
            check Alcotest.int "one eviction" 1 r.Store.evicted;
            check
              Alcotest.(option string)
              "touched entry survives" (Some "payload a") (Store.get s ~key:ka);
            check
              Alcotest.(option string)
              "untouched entry evicted" None (Store.get s ~key:kb)));
    Alcotest.test_case "quarantine is outside the budget accounting" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let bad = String.make 32 'f' in
            put_exn s ~key:bad (String.make 4096 'x');
            let oc = open_out (entry_file dir bad) in
            output_string oc (String.make 4096 '?');
            close_out oc;
            check
              Alcotest.(option string)
              "quarantined on read" None (Store.get s ~key:bad);
            check Alcotest.int "one quarantined" 1
              (Store.stats s).Store.quarantined;
            let keep = String.make 32 '0' in
            put_exn s ~key:keep "small";
            let size = (Unix.stat (entry_file dir keep)).Unix.st_size in
            (* Budget = exactly the live entry: if the 4 KiB in
               quarantine/ were counted, this would evict. *)
            let r =
              Store.gc
                ~budget:{ Store.max_bytes = Some size; max_age_s = None }
                s
            in
            check Alcotest.int "quarantined bytes do not force eviction" 0
              r.Store.evicted;
            check Alcotest.int "live entry kept" 1 r.Store.remaining_entries;
            check Alcotest.bool "quarantine preserved" true
              ((Store.stats s).Store.quarantined >= 1)));
    Alcotest.test_case "daemon and CLI handles interleave safely" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            (* One budgeted handle (the daemon, sweeping as it writes)
               and one unbudgeted handle (a CLI run) share the
               directory. Every read must be a miss or the exact
               payload — never a torn or foreign value — and a final
               sweep must land the store within budget. *)
            let daemon =
              open_budgeted dir
                { Store.max_bytes = Some 2048; max_age_s = None }
            in
            let cli = open_store dir in
            let n = 200 in
            let key i = Fmt.str "%032x" i in
            let payload k = "payload:" ^ k in
            let churn handle step =
              let bad = ref 0 in
              for i = 0 to n - 1 do
                let k = key i in
                (match Store.put handle ~key:k (payload k) with
                | Ok () | Error _ -> ());
                let k' = key (i * step mod n) in
                match Store.get handle ~key:k' with
                | None -> ()
                | Some p -> if p <> payload k' then incr bad
              done;
              !bad
            in
            let worker = Domain.spawn (fun () -> churn daemon 7) in
            let cli_bad = churn cli 13 in
            let daemon_bad = Domain.join worker in
            check Alcotest.int "no torn reads through the CLI handle" 0 cli_bad;
            check Alcotest.int "no torn reads through the daemon handle" 0
              daemon_bad;
            ignore (Store.gc daemon);
            check Alcotest.bool "post-gc store is within budget" true
              ((Store.stats daemon).Store.bytes <= 2048)));
  ]

(* --- portable archives -------------------------------------------------- *)

let archive_tests =
  [
    Alcotest.test_case
      "export excludes skewed, corrupt and quarantined entries" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let ka = String.make 32 'a'
            and kb = String.make 32 'b'
            and kc = String.make 32 'c' in
            put_exn s ~key:ka "alpha";
            put_exn s ~key:kb "beta";
            put_exn s ~key:kc "gamma";
            (* kb: rewritten under a future format version; kc: raw
               damage. Export reads through the validating [get] path,
               so neither may appear in the archive. *)
            rewrite (entry_file dir kb)
              ("entangle-cache/999\n" ^ kb ^ "\nbeta");
            rewrite (entry_file dir kc) "not a cache entry";
            let text, count = Store.export_all s in
            check Alcotest.int "only the valid entry exports" 1 count;
            check Alcotest.int "damage went to quarantine" 1
              (Store.stats s).Store.quarantined;
            with_temp_dir (fun dir2 ->
                let s2 = open_store dir2 in
                match Store.import_all s2 text with
                | Error e -> Alcotest.failf "import: %s" e
                | Ok (imported, rejected) ->
                    check Alcotest.int "imported" 1 imported;
                    check Alcotest.int "rejected" 0 rejected;
                    check
                      Alcotest.(option string)
                      "payload survives the round trip" (Some "alpha")
                      (Store.get s2 ~key:ka);
                    check
                      Alcotest.(option string)
                      "skewed entry never crossed" None
                      (Store.get s2 ~key:kb))));
    Alcotest.test_case "multi-line payloads round-trip byte-exactly" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let key = String.make 32 '1' in
            let payload = "line one\nline two\n\nbinary-ish \000 tail" in
            put_exn s ~key payload;
            let text, _ = Store.export_all s in
            with_temp_dir (fun dir2 ->
                let s2 = open_store dir2 in
                (match Store.import_all s2 text with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "import: %s" e);
                check
                  Alcotest.(option string)
                  "byte-exact" (Some payload) (Store.get s2 ~key))));
    Alcotest.test_case "import check callback rejects entries" `Quick
      (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            put_exn s ~key:(String.make 32 'a') "keep";
            put_exn s ~key:(String.make 32 'b') "drop";
            let text, _ = Store.export_all s in
            with_temp_dir (fun dir2 ->
                let s2 = open_store dir2 in
                match
                  Store.import_all
                    ~check:(fun ~key:_ payload -> payload = "keep")
                    s2 text
                with
                | Error e -> Alcotest.failf "import: %s" e
                | Ok (imported, rejected) ->
                    check Alcotest.int "imported" 1 imported;
                    check Alcotest.int "rejected" 1 rejected;
                    check Alcotest.int "store holds only the accepted entry"
                      1
                      (Store.stats s2).Store.entries)));
    Alcotest.test_case "hostile keys cannot escape the store directory"
      `Quick (fun () ->
        (* Archives cross machines, so a crafted key is untrusted input
           aimed at [put]'s objects/<shard>/<key> path. Every non-hex
           key must be rejected before it can name a file. *)
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let entry key payload =
              Fmt.str "%s\n%d\n%s\n" key (String.length payload) payload
            in
            let text =
              Store.archive_header ^ "\n"
              ^ entry "../../../../tmp/entangle-pwned" "evil"
              ^ entry "aa/../escape" "evil"
              ^ entry (String.make 32 'A') "uppercase is not a fingerprint"
              ^ entry (String.make 32 'a') "fine"
            in
            (match Store.import_all s text with
            | Error e -> Alcotest.failf "import: %s" e
            | Ok (imported, rejected) ->
                check Alcotest.int "only the hex key imports" 1 imported;
                check Alcotest.int "hostile keys rejected" 3 rejected);
            check
              Alcotest.(option string)
              "the honest entry landed" (Some "fine")
              (Store.get s ~key:(String.make 32 'a'));
            check Alcotest.bool "no traversal target was written" false
              (Sys.file_exists "/tmp/entangle-pwned")));
    Alcotest.test_case "an archive imports as one pack, up to a bad entry"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let entries = three () in
            List.iter (fun (key, payload) -> put_exn s ~key payload) entries;
            let text, _ = Store.export_all s in
            with_temp_dir (fun dir2 ->
                let s2 = open_store dir2 in
                (match Store.import_all s2 text with
                | Ok (imported, _) -> check Alcotest.int "imported" 3 imported
                | Error e -> Alcotest.failf "import: %s" e);
                check Alcotest.int "one pack" 1
                  (List.length (inodes dir2 (List.map fst entries))));
            (* The middle entry's length is wrong: the one before it
               lands, the one after it cannot be framed. *)
            let record (key, payload) =
              Fmt.str "%s\n%d\n%s\n" key (String.length payload) payload
            in
            let (ka, pa), (kb, _), (kc, pc) =
              match entries with [ a; b; c ] -> (a, b, c) | _ -> assert false
            in
            let text =
              Store.archive_header ^ "\n" ^ record (ka, pa)
              ^ Fmt.str "%s\n999\nshort\n" kb
              ^ record (kc, pc)
            in
            with_temp_dir (fun dir3 ->
                let s3 = open_store dir3 in
                (match Store.import_all s3 text with
                | Ok _ -> Alcotest.fail "a misframed archive must not import"
                | Error _ -> ());
                check Alcotest.(option string) "the entry before it landed"
                  (Some pa) (Store.get s3 ~key:ka);
                check Alcotest.(option string) "the entry after it did not"
                  None (Store.get s3 ~key:kc))));
    Alcotest.test_case "wrong payload length is caught at the faulty entry"
      `Quick (fun () ->
        (* A declared length that is in range but wrong would silently
           shift the framing of every later entry; the terminator check
           must fail loudly at the entry itself. *)
        with_temp_dir (fun dir ->
            let s = open_store dir in
            let key = String.make 32 'a' in
            let text =
              Fmt.str "%s\n%s\n3\nabcd\n" Store.archive_header key
            in
            match Store.import_all s text with
            | Ok _ -> Alcotest.fail "misframed archive must not import"
            | Error e ->
                check Alcotest.bool "error names the terminator" true
                  (let needle = "terminator" in
                   let n = String.length e and m = String.length needle in
                   let rec at i =
                     i + m <= n
                     && (String.sub e i m = needle || at (i + 1))
                   in
                   at 0)));
    Alcotest.test_case "truncated or foreign archives are structured errors"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            let s = open_store dir in
            put_exn s ~key:(String.make 32 'a') "payload";
            let text, _ = Store.export_all s in
            with_temp_dir (fun dir2 ->
                let s2 = open_store dir2 in
                (match
                   Store.import_all s2
                     (String.sub text 0 (String.length text - 3))
                 with
                | Error _ -> ()
                | Ok _ -> Alcotest.fail "truncated archive must not import");
                match Store.import_all s2 "some other file format\n" with
                | Error _ -> ()
                | Ok _ -> Alcotest.fail "foreign file must not import")));
    Alcotest.test_case "an overlong payload length is a framing error"
      `Quick (fun () ->
        (* A length past the end of the text, however large, is an
           [Error] rather than an escaping exception. *)
        with_temp_dir (fun dir ->
            match
              Store.import_all (open_store dir)
                (Fmt.str "%s\n%s\n%d\nxyz\n" Store.archive_header
                   (String.make 32 'a') max_int)
            with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "an overlong length must not import"));
    Alcotest.test_case "a huge archive header echoes a bounded excerpt"
      `Quick (fun () ->
        with_temp_dir (fun dir ->
            match
              Store.import_all (open_store dir)
                (String.make 400_000 'h' ^ "\n")
            with
            | Error e ->
                check Alcotest.bool "under 1 KB" true (String.length e < 1024)
            | Ok _ -> Alcotest.fail "foreign file must not import"));
    Alcotest.test_case
      "cache archive warms a fresh store; junk payloads are rejected" `Quick
      (fun () ->
        with_temp_cache (fun cache ->
            let inst () = Regression.build ~microbatches:2 () in
            let cold, _ = check_with ~cache (inst ()) in
            let ops = (result_stats cold).Entangle.Refine.operators_processed in
            check Alcotest.bool "cold run refines" true (Result.is_ok cold);
            let text, count = Cache.export_archive cache in
            check Alcotest.bool "archive carries the run's entries" true
              (count > 0);
            (* A payload that is valid archive framing but not a valid
               certificate: [import_archive]'s structural validation
               must reject it without poisoning the import. *)
            let junk =
              Fmt.str "%s\n%s\n%d\n%s\n" Store.archive_header
                (String.make 32 'f') (String.length "junk") "junk"
            in
            let tail =
              (* splice the junk entry after the header line *)
              let nl = String.index text '\n' in
              String.sub text (nl + 1) (String.length text - nl - 1)
            in
            with_temp_dir (fun dir2 ->
                match Cache.create ~dir:dir2 () with
                | Error e -> Alcotest.failf "cannot open cache: %s" e
                | Ok cache2 -> (
                    match Cache.import_archive cache2 (junk ^ tail) with
                    | Error e -> Alcotest.failf "import: %s" e
                    | Ok (imported, rejected) ->
                        check Alcotest.int "real entries imported" count
                          imported;
                        check Alcotest.int "junk payload rejected" 1 rejected;
                        (* The imported store warms a re-check of the
                           same instance: every operator a hit, zero
                           saturation... *)
                        let i = inst () in
                        let warm, _ = check_with ~cache:cache2 i in
                        let ws = result_stats warm in
                        check Alcotest.int "warm: every operator from cache"
                          ops ws.Entangle.Refine.cache_hits;
                        check Alcotest.int "warm: zero saturation" 0
                          ws.Entangle.Refine.saturation_iterations;
                        (* ... and the warmed verdict exports a bundle
                           the certexport reader accepts: the archive
                           path feeds the bundle path. *)
                        match warm with
                        | Error _ -> Alcotest.fail "warm run must refine"
                        | Ok success -> (
                            match
                              Entangle.Cert_export.bundle
                                ~producer:"test-archive" ~env:i.Instance.env
                                ~input_relation:i.Instance.input_relation
                                success
                            with
                            | Error e -> Alcotest.failf "bundle export: %s" e
                            | Ok b -> (
                                match
                                  Entangle_certexport.Bundle.of_string
                                    (Entangle_certexport.Bundle.to_string b)
                                with
                                | Ok b' ->
                                    check Alcotest.string
                                      "bundle reader agrees on the id"
                                      (Entangle_certexport.Bundle.id b)
                                      (Entangle_certexport.Bundle.id b')
                                | Error e ->
                                    Alcotest.failf "bundle reader rejects: %a"
                                      Entangle_certexport.Cert_error.pp e))))));
  ]

(* Words the minor heap allocates while [f] runs. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let payload_tests =
  [
    Alcotest.test_case "a payload's mappings parse in linear allocation"
      `Quick (fun () ->
        let payload n =
          "(entry mapped ("
          ^ String.concat " " (List.init n (Fmt.str "(tensor t%d)"))
          ^ ") ())"
        in
        let small = payload 1_000 and large = payload 4_000 in
        let validate text () =
          match Cache.validate_payload text with
          | Ok () -> ()
          | Error e -> Alcotest.fail e
        in
        let base = minor_words (validate small) in
        let words = minor_words (validate large) in
        if words >= 5. *. base then
          Alcotest.failf "%.0f words, %.0f at a quarter the mappings" words base);
  ]

let suite =
  [
    ("cache.fingerprint", fingerprint_tests);
    ("cache.sha256", sha256_tests);
    ("cache.store", store_tests);
    ("cache.recheck", recheck_tests);
    ("cache.key", key_tests);
    ("cache.cone", cone_tests);
    ("cache.retention", retention_tests);
    ("cache.archive", archive_tests);
    ("cache.payload", payload_tests);
  ]
