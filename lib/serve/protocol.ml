module Sexp = Entangle_ir.Sexp
module Refine = Entangle.Refine
module Store = Entangle_cache.Store

let ( let* ) = Result.bind
let err fmt = Fmt.kstr (fun s -> Error s) fmt

(* Version 2 added busy rejections at admission, batched checks with
   streamed per-instance responses, and server-side counters.
   Version 3 added certificate exchange: cert-fetch (run a check, hand
   back a portable tamper-evident bundle) and cert-push (submit a
   bundle for independent minimal verification). *)
let protocol_version = 3
let max_frame_bytes = 64 * 1024 * 1024

(* --- framing ----------------------------------------------------------- *)

let encode_frame payload =
  string_of_int (String.length payload) ^ "\n" ^ payload

(* [Io] is the only framing: the frame grammar over a non-blocking
   descriptor, every wait bounded by an absolute deadline and
   (optionally) interruptible through a cancel descriptor — the
   server's drain pipe. A slow-loris peer costs one timeout, never a
   wedged thread. *)
module Io = struct
  type error = Timeout | Closed | Cancelled | Failed of string

  let error_message = function
    | Timeout -> "i/o timeout"
    | Closed -> "connection closed"
    | Cancelled -> "cancelled"
    | Failed m -> m

  type t = {
    fd : Unix.file_descr;
    cancel : Unix.file_descr option;
    buf : Bytes.t;
    mutable pos : int;
    mutable len : int;
  }

  let of_fd ?cancel fd =
    Unix.set_nonblock fd;
    { fd; cancel; buf = Bytes.create 65536; pos = 0; len = 0 }

  let fd t = t.fd

  let ( let* ) = Result.bind

  (* Reads also watch the cancel descriptor: a readable cancel pipe
     means the server is draining and blocked readers must give up.
     Writes ignore it — an in-flight reply is allowed to finish during
     a drain (its deadline still bounds it). When both the descriptor
     and the cancel pipe are ready, the descriptor wins, so buffered
     requests finish cleanly. *)
  let rec wait ~read t deadline =
    let timeout =
      match deadline with None -> -1. | Some d -> d -. Unix.gettimeofday ()
    in
    if Option.is_some deadline && timeout < 0. then Error Timeout
    else
      let cancels = if read then Option.to_list t.cancel else [] in
      let rds = if read then t.fd :: cancels else cancels in
      let wrs = if read then [] else [ t.fd ] in
      match Unix.select rds wrs [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ~read t deadline
      | r, w, _ ->
          if (if read then List.mem t.fd r else List.mem t.fd w) then Ok ()
          else if List.exists (fun c -> List.mem c r) cancels then
            Error Cancelled
          else Error Timeout

  let wait_input ?deadline t =
    if t.pos < t.len then Ok () else wait ~read:true t deadline

  let refill t deadline =
    let rec go () =
      let* () = wait ~read:true t deadline in
      match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
      | 0 -> Error Closed
      | n ->
          t.pos <- 0;
          t.len <- n;
          Ok ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          Error Closed
      | exception Unix.Unix_error (e, _, _) ->
          Error (Failed (Unix.error_message e))
    in
    go ()

  let read_byte t deadline =
    let* () = if t.pos < t.len then Ok () else refill t deadline in
    let c = Bytes.get t.buf t.pos in
    t.pos <- t.pos + 1;
    Ok c

  let read_exact t n deadline =
    let out = Bytes.create n in
    let rec go filled =
      if filled = n then Ok (Bytes.unsafe_to_string out)
      else if t.pos < t.len then begin
        let take = min (n - filled) (t.len - t.pos) in
        Bytes.blit t.buf t.pos out filled take;
        t.pos <- t.pos + take;
        go (filled + take)
      end
      else
        let* () = refill t deadline in
        go filled
    in
    go 0

  let read_frame ?deadline t =
    let rec len acc digits =
      if digits > 10 then Error (Failed "frame length prefix too long")
      else
        match read_byte t deadline with
        | Error Closed when digits > 0 ->
            Error (Failed "connection closed inside frame length")
        | Error _ as e -> e
        | Ok '\n' ->
            if digits = 0 then Error (Failed "empty frame length") else Ok acc
        | Ok ('0' .. '9' as c) ->
            len ((acc * 10) + (Char.code c - 48)) (digits + 1)
        | Ok c -> Error (Failed (Fmt.str "invalid byte %C in frame length" c))
    in
    let* n = len 0 0 in
    if n > max_frame_bytes then
      Error (Failed (Fmt.str "frame of %d bytes exceeds limit" n))
    else
      match read_exact t n deadline with
      | Error Closed -> Error (Failed "connection closed inside frame payload")
      | r -> r

  let write_raw ?deadline t s =
    let n = String.length s in
    let rec go off =
      if off = n then Ok ()
      else
        let* () = wait ~read:false t deadline in
        match Unix.write_substring t.fd s off (n - off) with
        | written -> go (off + written)
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            go off
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            Error Closed
        | exception Unix.Unix_error (e, _, _) ->
            Error (Failed (Unix.error_message e))
    in
    go 0

  let write_frame ?deadline t payload =
    write_raw ?deadline t (encode_frame payload)
end

(* --- sexp helpers ------------------------------------------------------ *)

let field name body = Sexp.list (Sexp.atom name :: body)
let int_field name i = field name [ Sexp.atom (string_of_int i) ]
let str_field name s = field name [ Sexp.atom s ]

let assoc name = function
  | Sexp.List items ->
      List.find_map
        (function
          | Sexp.List (Sexp.Atom tag :: body) when String.equal tag name ->
              Some body
          | _ -> None)
        items
  | Sexp.Atom _ -> None

let get_int name sexp =
  match assoc name sexp with
  | Some [ Sexp.Atom v ] -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None ->
          err "field %s: not an integer (%s)" name (Sexp.excerpt (Sexp.Atom v)))
  | Some _ -> err "field %s: malformed" name
  | None -> err "missing field %s" name

let get_str name sexp =
  match assoc name sexp with
  | Some [ Sexp.Atom v ] -> Ok v
  | Some _ -> err "field %s: malformed" name
  | None -> err "missing field %s" name

let get_str_opt name sexp =
  match assoc name sexp with
  | Some [ Sexp.Atom v ] -> Ok (Some v)
  | Some _ -> err "field %s: malformed" name
  | None -> Ok None

let get_one name sexp =
  match assoc name sexp with
  | Some [ v ] -> Ok v
  | Some _ -> err "field %s: expected one value" name
  | None -> err "missing field %s" name

(* --- handshake --------------------------------------------------------- *)

type hello = { protocol : int; client : string }

type welcome =
  | Welcome of { protocol : int; server : string }
  | Rejected of { expected : int; got : int; message : string }
  | Busy of { max_clients : int; message : string }

let hello_to_string h =
  Sexp.to_string
    (Sexp.list
       [
         Sexp.atom "hello";
         int_field "protocol" h.protocol;
         str_field "client" h.client;
       ])

let hello_of_string s =
  let* sexp = Sexp.of_string s in
  match sexp with
  | Sexp.List (Sexp.Atom "hello" :: _) ->
      let* protocol = get_int "protocol" sexp in
      let* client = get_str "client" sexp in
      Ok { protocol; client }
  | _ -> err "expected (hello ...), got %s" (Sexp.excerpt sexp)

let welcome_to_string = function
  | Welcome w ->
      Sexp.to_string
        (Sexp.list
           [
             Sexp.atom "welcome";
             int_field "protocol" w.protocol;
             str_field "server" w.server;
           ])
  | Rejected r ->
      Sexp.to_string
        (Sexp.list
           [
             Sexp.atom "reject";
             int_field "expected" r.expected;
             int_field "got" r.got;
             str_field "message" r.message;
           ])
  | Busy b ->
      Sexp.to_string
        (Sexp.list
           [
             Sexp.atom "busy";
             int_field "max-clients" b.max_clients;
             str_field "message" b.message;
           ])

let welcome_of_string s =
  let* sexp = Sexp.of_string s in
  match sexp with
  | Sexp.List (Sexp.Atom "welcome" :: _) ->
      let* protocol = get_int "protocol" sexp in
      let* server = get_str "server" sexp in
      Ok (Welcome { protocol; server })
  | Sexp.List (Sexp.Atom "reject" :: _) ->
      let* expected = get_int "expected" sexp in
      let* got = get_int "got" sexp in
      let* message = get_str "message" sexp in
      Ok (Rejected { expected; got; message })
  | Sexp.List (Sexp.Atom "busy" :: _) ->
      let* max_clients = get_int "max-clients" sexp in
      let* message = get_str "message" sexp in
      Ok (Busy { max_clients; message })
  | _ ->
      err "expected (welcome ...), (reject ...) or (busy ...), got %s"
        (Sexp.excerpt sexp)

(* --- requests ---------------------------------------------------------- *)

type check_options = {
  family : string option;
  namespace : string option;
  keep_going : bool;
}

let default_options =
  { family = None; namespace = None; keep_going = false }

type batch_instance = { gs : Sexp.t; gd : Sexp.t; relation : Sexp.t }

type request =
  | Ping
  | Describe
  | Check of {
      options : check_options;
      gs : Sexp.t;
      gd : Sexp.t;
      relation : Sexp.t;
    }
  | Check_batch of { options : check_options; instances : batch_instance list }
  | Cert_fetch of {
      options : check_options;
      gs : Sexp.t;
      gd : Sexp.t;
      relation : Sexp.t;
      env : (string * int) list;
    }
  | Cert_push of { bundle : string }
  | Cache_stats
  | Cache_clear
  | Server_stats
  | Shutdown

let options_to_sexp o =
  field "options"
    (List.concat
       [
         (match o.family with Some f -> [ str_field "family" f ] | None -> []);
         (match o.namespace with
         | Some ns -> [ str_field "namespace" ns ]
         | None -> []);
         (if o.keep_going then [ Sexp.atom "keep-going" ] else []);
       ])

let options_of_sexp sexp =
  match assoc "options" sexp with
  | None -> Ok default_options
  | Some body ->
      let o = Sexp.list body in
      let* family = get_str_opt "family" o in
      let* namespace = get_str_opt "namespace" o in
      let keep_going =
        List.exists (function Sexp.Atom "keep-going" -> true | _ -> false) body
      in
      Ok { family; namespace; keep_going }

(* The one table of request names: the wire's head atoms, the server's
   spans and serve.dispatch.<name> failpoints, and [describe] all read
   it. *)
let request_name = function
  | Ping -> "ping"
  | Describe -> "describe"
  | Check _ -> "check"
  | Check_batch _ -> "check-batch"
  | Cert_fetch _ -> "cert-fetch"
  | Cert_push _ -> "cert-push"
  | Cache_stats -> "cache-stats"
  | Cache_clear -> "cache-clear"
  | Server_stats -> "server-stats"
  | Shutdown -> "shutdown"

(* One request of each kind, in the order [describe] lists them: the
   decoder finds a head atom's kind here. *)
let request_kinds =
  let nil = Sexp.list [] in
  let options = default_options in
  [
    Ping;
    Describe;
    Check { options; gs = nil; gd = nil; relation = nil };
    Check_batch { options; instances = [] };
    Cert_fetch { options; gs = nil; gd = nil; relation = nil; env = [] };
    Cert_push { bundle = "" };
    Cache_stats;
    Cache_clear;
    Server_stats;
    Shutdown;
  ]

let request_names = List.map request_name request_kinds

let graph_fields ~gs ~gd ~relation =
  [ field "gs" [ gs ]; field "gd" [ gd ]; field "relation" [ relation ] ]

let graphs_of_sexp sexp =
  let* gs = get_one "gs" sexp in
  let* gd = get_one "gd" sexp in
  let* relation = get_one "relation" sexp in
  Ok (gs, gd, relation)

(* The items of a list field, each decoded by [f], in order. *)
let items_of_sexp name f sexp =
  match assoc name sexp with
  | None -> err "missing field %s" name
  | Some body ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* x = f item in
          Ok (x :: acc))
        (Ok []) body
      |> Result.map List.rev

let request_body_to_sexp req =
  field (request_name req)
    (match req with
    | Ping | Describe | Cache_stats | Cache_clear | Server_stats | Shutdown ->
        []
    | Check { options; gs; gd; relation } ->
        options_to_sexp options :: graph_fields ~gs ~gd ~relation
    | Check_batch { options; instances } ->
        [
          options_to_sexp options;
          field "instances"
            (List.map
               (fun i ->
                 field "instance"
                   (graph_fields ~gs:i.gs ~gd:i.gd ~relation:i.relation))
               instances);
        ]
    | Cert_fetch { options; gs; gd; relation; env } ->
        (options_to_sexp options :: graph_fields ~gs ~gd ~relation)
        @ [
            field "env"
              (List.map
                 (fun (s, v) ->
                   Sexp.list [ Sexp.atom s; Sexp.atom (string_of_int v) ])
                 env);
          ]
    | Cert_push { bundle } -> [ str_field "bundle" bundle ])

let request_to_string ~id req =
  Sexp.to_string
    (Sexp.list
       [ Sexp.atom "request"; int_field "id" id; request_body_to_sexp req ])

let request_body_of_sexp sexp =
  let decode kind =
    match kind with
    | Ping | Describe | Cache_stats | Cache_clear | Server_stats | Shutdown ->
        Ok kind
    | Check _ ->
        let* options = options_of_sexp sexp in
        let* gs, gd, relation = graphs_of_sexp sexp in
        Ok (Check { options; gs; gd; relation })
    | Check_batch _ ->
        let* options = options_of_sexp sexp in
        let* instances =
          items_of_sexp "instances"
            (function
              | Sexp.List (Sexp.Atom "instance" :: _) as item ->
                  let* gs, gd, relation = graphs_of_sexp item in
                  Ok { gs; gd; relation }
              | s -> err "instances: malformed %s" (Sexp.excerpt s))
            sexp
        in
        Ok (Check_batch { options; instances })
    | Cert_fetch _ ->
        let* options = options_of_sexp sexp in
        let* gs, gd, relation = graphs_of_sexp sexp in
        let* env =
          items_of_sexp "env"
            (function
              | Sexp.List [ Sexp.Atom s; Sexp.Atom v ] -> (
                  match int_of_string_opt v with
                  | Some n -> Ok (s, n)
                  | None ->
                      err "env: bad value %s for %s"
                        (Sexp.excerpt (Sexp.Atom v))
                        (Sexp.excerpt (Sexp.Atom s)))
              | s -> err "env: malformed %s" (Sexp.excerpt s))
            sexp
        in
        Ok (Cert_fetch { options; gs; gd; relation; env })
    | Cert_push _ ->
        let* bundle = get_str "bundle" sexp in
        Ok (Cert_push { bundle })
  in
  let kind =
    match sexp with
    | Sexp.List (Sexp.Atom head :: _) ->
        List.find_opt
          (fun r -> String.equal (request_name r) head)
          request_kinds
    | _ -> None
  in
  match kind with
  | Some r -> decode r
  | None -> err "unknown request %s" (Sexp.excerpt sexp)

let request_of_string s =
  let* sexp = Sexp.of_string s in
  match sexp with
  | Sexp.List [ Sexp.Atom "request"; _; body ] ->
      let* id = get_int "id" sexp in
      let* req = request_body_of_sexp body in
      Ok (id, req)
  | _ -> err "expected (request (id n) body), got %s" (Sexp.excerpt sexp)

(* --- responses --------------------------------------------------------- *)

type error_code = Bad_request | Server_internal

let error_exit_code = function Bad_request -> 124 | Server_internal -> 3
let uncached_message = "server is running without a cache"

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | Server_internal -> "internal"

let error_code_of_string = function
  | "bad-request" -> Ok Bad_request
  | "internal" -> Ok Server_internal
  | s -> err "unknown error code %s" (Sexp.excerpt (Sexp.Atom s))

type check_reply = {
  exit_code : int;
  verdict : string;
  report : string;
  output_relation : Sexp.t option;
  stats : Refine.stats;
}

type server_stats = {
  accepted : int;
  active : int;
  served : int;
  rejected_busy : int;
  timed_out : int;
  drained : int;
  accept_failures : int;
  max_clients : int;
}

type cert_verdict = {
  accepted : bool;
  cert_id : string option;
  cert_code : string option;
  cert_detail : string;
}

type response =
  | Pong
  | Described of string
  | Checked of check_reply
  | Cache_stats_reply of { dir : string; stats : Store.stats }
  | Cache_cleared of int
  | Server_stats_reply of server_stats
  | Batch_item of { index : int; body : response }
  | Batch_done of { count : int }
  | Cert_bundle of { bundle : string }
  | Cert_verdict_reply of cert_verdict
  | Bye
  | Error_reply of { code : error_code; message : string }

(* Statistics cross the wire losslessly: integers verbatim, the wall
   clock as a hex float (read back bit-exact by [float_of_string]). *)
let stats_to_sexp (s : Refine.stats) =
  Sexp.list
    [
      Sexp.atom "stats";
      int_field "operators" s.Refine.operators_processed;
      int_field "iterations" s.Refine.saturation_iterations;
      int_field "nodes-peak" s.Refine.egraph_nodes_peak;
      int_field "classes-peak" s.Refine.egraph_classes_peak;
      int_field "matches" s.Refine.matches_examined;
      int_field "unions" s.Refine.unions_applied;
      int_field "retries" s.Refine.retries;
      int_field "budget-trips" s.Refine.budget_trips;
      int_field "cache-hits" s.Refine.cache_hits;
      int_field "cache-misses" s.Refine.cache_misses;
      int_field "cache-replays-failed" s.Refine.cache_replays_failed;
      str_field "wall" (Printf.sprintf "%h" s.Refine.wall_time_s);
      field "rule-hits"
        (List.map
           (fun (rule, hits) ->
             Sexp.list [ Sexp.atom rule; Sexp.atom (string_of_int hits) ])
           s.Refine.rule_hits);
    ]

let stats_of_sexp sexp =
  match sexp with
  | Sexp.List (Sexp.Atom "stats" :: _) ->
      let* operators_processed = get_int "operators" sexp in
      let* saturation_iterations = get_int "iterations" sexp in
      let* egraph_nodes_peak = get_int "nodes-peak" sexp in
      let* egraph_classes_peak = get_int "classes-peak" sexp in
      let* matches_examined = get_int "matches" sexp in
      let* unions_applied = get_int "unions" sexp in
      let* retries = get_int "retries" sexp in
      let* budget_trips = get_int "budget-trips" sexp in
      let* cache_hits = get_int "cache-hits" sexp in
      let* cache_misses = get_int "cache-misses" sexp in
      let* cache_replays_failed = get_int "cache-replays-failed" sexp in
      let* wall = get_str "wall" sexp in
      let* wall_time_s =
        match float_of_string_opt wall with
        | Some f -> Ok f
        | None ->
            err "field wall: not a float (%s)" (Sexp.excerpt (Sexp.Atom wall))
      in
      let* rule_hits =
        items_of_sexp "rule-hits"
          (function
            | Sexp.List [ Sexp.Atom rule; Sexp.Atom hits ] -> (
                match int_of_string_opt hits with
                | Some h -> Ok (rule, h)
                | None ->
                    err "rule-hits: bad count %s"
                      (Sexp.excerpt (Sexp.Atom hits)))
            | s -> err "rule-hits: malformed %s" (Sexp.excerpt s))
          sexp
      in
      Ok
        {
          Refine.operators_processed;
          saturation_iterations;
          egraph_nodes_peak;
          egraph_classes_peak;
          matches_examined;
          unions_applied;
          rule_hits;
          retries;
          budget_trips;
          cache_hits;
          cache_misses;
          cache_replays_failed;
          wall_time_s;
        }
  | s -> err "expected (stats ...), got %s" (Sexp.excerpt s)

let opt_int_field name = function
  | Some i -> [ int_field name i ]
  | None -> []

let get_int_opt name sexp =
  match assoc name sexp with
  | None -> Ok None
  | Some [ Sexp.Atom v ] -> (
      match int_of_string_opt v with
      | Some i -> Ok (Some i)
      | None ->
          err "field %s: not an integer (%s)" name (Sexp.excerpt (Sexp.Atom v)))
  | Some _ -> err "field %s: malformed" name

(* A cache-stats or server-stats reply is headed by its request's
   name. *)
let rec response_body_to_sexp = function
  | Pong -> Sexp.list [ Sexp.atom "pong" ]
  | Bye -> Sexp.list [ Sexp.atom "bye" ]
  | Described json -> Sexp.list [ Sexp.atom "described"; Sexp.atom json ]
  | Cache_cleared n ->
      Sexp.list [ Sexp.atom "cleared"; Sexp.atom (string_of_int n) ]
  | Error_reply { code; message } ->
      Sexp.list
        [
          Sexp.atom "error";
          str_field "code" (error_code_to_string code);
          str_field "message" message;
        ]
  | Cache_stats_reply { dir; stats = s } ->
      field (request_name Cache_stats)
        (List.concat
           [
             [
               str_field "dir" dir;
               int_field "entries" s.Store.entries;
               int_field "bytes" s.Store.bytes;
               int_field "shards" s.Store.shards;
               int_field "quarantined" s.Store.quarantined;
             ];
             opt_int_field "max-bytes" s.Store.max_bytes;
             (match s.Store.max_age_s with
             | Some a -> [ str_field "max-age-s" (Printf.sprintf "%h" a) ]
             | None -> []);
             [
               int_field "evicted-entries" s.Store.evicted_entries;
               int_field "evicted-bytes" s.Store.evicted_bytes;
               int_field "expired-entries" s.Store.expired_entries;
             ];
           ])
  | Checked r ->
      Sexp.list
        (List.concat
           [
             [
               Sexp.atom "result";
               int_field "exit" r.exit_code;
               str_field "verdict" r.verdict;
               str_field "report" r.report;
               stats_to_sexp r.stats;
             ];
             (match r.output_relation with
             | Some rel -> [ field "output-relation" [ rel ] ]
             | None -> []);
           ])
  | Server_stats_reply s ->
      field (request_name Server_stats)
        [
          int_field "accepted" s.accepted;
          int_field "active" s.active;
          int_field "served" s.served;
          int_field "rejected-busy" s.rejected_busy;
          int_field "timed-out" s.timed_out;
          int_field "drained" s.drained;
          int_field "accept-failures" s.accept_failures;
          int_field "max-clients" s.max_clients;
        ]
  | Batch_item { index; body } ->
      Sexp.list
        [
          Sexp.atom "batch-item";
          int_field "index" index;
          response_body_to_sexp body;
        ]
  | Batch_done { count } ->
      Sexp.list [ Sexp.atom "batch-done"; int_field "count" count ]
  | Cert_bundle { bundle } ->
      Sexp.list [ Sexp.atom "cert-bundle"; str_field "bundle" bundle ]
  | Cert_verdict_reply v ->
      Sexp.list
        (List.concat
           [
             [
               Sexp.atom "cert-verdict";
               str_field "accepted" (string_of_bool v.accepted);
             ];
             (match v.cert_id with Some i -> [ str_field "id" i ] | None -> []);
             (match v.cert_code with
             | Some c -> [ str_field "code" c ]
             | None -> []);
             [ str_field "detail" v.cert_detail ];
           ])

let response_to_string ~id resp =
  Sexp.to_string
    (Sexp.list
       [ Sexp.atom "response"; int_field "id" id; response_body_to_sexp resp ])

let rec response_body_of_sexp sexp =
  match sexp with
  | Sexp.List (Sexp.Atom "pong" :: _) -> Ok Pong
  | Sexp.List (Sexp.Atom "bye" :: _) -> Ok Bye
  | Sexp.List [ Sexp.Atom "described"; Sexp.Atom json ] -> Ok (Described json)
  | Sexp.List [ Sexp.Atom "cleared"; Sexp.Atom n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Cache_cleared n)
      | None -> err "cleared: bad count %s" (Sexp.excerpt (Sexp.Atom n)))
  | Sexp.List (Sexp.Atom "error" :: _) ->
      let* code = get_str "code" sexp in
      let* code = error_code_of_string code in
      let* message = get_str "message" sexp in
      Ok (Error_reply { code; message })
  | Sexp.List (Sexp.Atom head :: _)
    when String.equal head (request_name Cache_stats) ->
      let* dir = get_str "dir" sexp in
      let* entries = get_int "entries" sexp in
      let* bytes = get_int "bytes" sexp in
      let* shards = get_int "shards" sexp in
      let* quarantined = get_int "quarantined" sexp in
      let* max_bytes = get_int_opt "max-bytes" sexp in
      let* max_age_s =
        match assoc "max-age-s" sexp with
        | None -> Ok None
        | Some [ Sexp.Atom v ] -> (
            match float_of_string_opt v with
            | Some f -> Ok (Some f)
            | None ->
                err "field max-age-s: not a float (%s)"
                  (Sexp.excerpt (Sexp.Atom v)))
        | Some _ -> Error "field max-age-s: malformed"
      in
      let* evicted_entries = get_int "evicted-entries" sexp in
      let* evicted_bytes = get_int "evicted-bytes" sexp in
      let* expired_entries = get_int "expired-entries" sexp in
      Ok
        (Cache_stats_reply
           {
             dir;
             stats =
               {
                 Store.entries;
                 bytes;
                 shards;
                 quarantined;
                 max_bytes;
                 max_age_s;
                 evicted_entries;
                 evicted_bytes;
                 expired_entries;
               };
           })
  | Sexp.List (Sexp.Atom "result" :: _) ->
      let* exit_code = get_int "exit" sexp in
      let* verdict = get_str "verdict" sexp in
      let* report = get_str "report" sexp in
      (* [stats_to_sexp] tags the list with a leading atom, so the
         field lookup strips (stats ...) down to its body; rewrap. *)
      let* stats =
        match assoc "stats" sexp with
        | Some body -> stats_of_sexp (Sexp.list (Sexp.atom "stats" :: body))
        | None -> Error "missing field stats"
      in
      let* output_relation =
        match assoc "output-relation" sexp with
        | None -> Ok None
        | Some [ rel ] -> Ok (Some rel)
        | Some _ -> Error "field output-relation: malformed"
      in
      Ok (Checked { exit_code; verdict; report; output_relation; stats })
  | Sexp.List (Sexp.Atom head :: _)
    when String.equal head (request_name Server_stats) ->
      let* accepted = get_int "accepted" sexp in
      let* active = get_int "active" sexp in
      let* served = get_int "served" sexp in
      let* rejected_busy = get_int "rejected-busy" sexp in
      let* timed_out = get_int "timed-out" sexp in
      let* drained = get_int "drained" sexp in
      let* accept_failures = get_int "accept-failures" sexp in
      let* max_clients = get_int "max-clients" sexp in
      Ok
        (Server_stats_reply
           {
             accepted;
             active;
             served;
             rejected_busy;
             timed_out;
             drained;
             accept_failures;
             max_clients;
           })
  | Sexp.List [ Sexp.Atom "batch-item"; _; body ] ->
      let* index = get_int "index" sexp in
      let* body = response_body_of_sexp body in
      Ok (Batch_item { index; body })
  | Sexp.List (Sexp.Atom "batch-done" :: _) ->
      let* count = get_int "count" sexp in
      Ok (Batch_done { count })
  | Sexp.List (Sexp.Atom "cert-bundle" :: _) ->
      let* bundle = get_str "bundle" sexp in
      Ok (Cert_bundle { bundle })
  | Sexp.List (Sexp.Atom "cert-verdict" :: _) ->
      let* accepted = get_str "accepted" sexp in
      let* accepted =
        match bool_of_string_opt accepted with
        | Some b -> Ok b
        | None ->
            err "field accepted: not a bool (%s)"
              (Sexp.excerpt (Sexp.Atom accepted))
      in
      let* cert_id = get_str_opt "id" sexp in
      let* cert_code = get_str_opt "code" sexp in
      let* cert_detail = get_str "detail" sexp in
      Ok (Cert_verdict_reply { accepted; cert_id; cert_code; cert_detail })
  | s -> err "unknown response %s" (Sexp.excerpt s)

let response_of_string s =
  let* sexp = Sexp.of_string s in
  match sexp with
  | Sexp.List [ Sexp.Atom "response"; _; body ] ->
      let* id = get_int "id" sexp in
      let* resp = response_body_of_sexp body in
      Ok (id, resp)
  | _ -> err "expected (response (id n) body), got %s" (Sexp.excerpt sexp)

(* --- introspection ----------------------------------------------------- *)

let describe_json ~server =
  let module J = Entangle_trace.Jsonw in
  J.envelope ~name:"serve" ~version:1
    [
      ("protocol", J.Int protocol_version);
      ("server", J.Str server);
      ("requests", J.Arr (List.map (fun s -> J.Str s) request_names));
      ( "check_options",
        J.Arr
          (List.map
             (fun s -> J.Str s)
             [ "family"; "namespace"; "keep-going" ]) );
    ]
