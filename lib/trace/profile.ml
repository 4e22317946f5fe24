type row = { label : string; count : int; total_s : float }

type t = {
  operators : row list;
  phases : row list;
  rules : (string * int * int) list;
  bans : (string * int) list;
  iterations : int;
  matches : int;
  unions : int;
  nodes_peak : int;
  classes_peak : int;
  collect_s : float;
  apply_s : float;
  rebuild_s : float;
  minor_words : int;
  cache_hits : int;
  cache_misses : int;
  cache_replays_failed : int;
}

let bump tbl key count total =
  let c0, t0 =
    Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0.)
  in
  Hashtbl.replace tbl key (c0 + count, t0 +. total)

let rows tbl =
  Hashtbl.fold
    (fun label (count, total_s) acc -> { label; count; total_s } :: acc)
    tbl []
  |> List.sort (fun a b -> compare b.total_s a.total_s)

let of_events events =
  let durations = Hashtbl.create 32 in
  (* Spans are emitted well-nested from a single thread: a stack pairs
     each End with the innermost open Begin. *)
  let stack = ref [] in
  let agg = Agg.create () in
  let agg_sink = Agg.sink agg in
  let rule_matches = Hashtbl.create 64 in
  let ban_counts = Hashtbl.create 16 in
  List.iter
    (fun (ev : Event.t) ->
      Sink.emit agg_sink ev;
      (match ev.phase with
      | Event.Begin -> stack := ev :: !stack
      | Event.End -> (
          match !stack with
          | opening :: rest ->
              stack := rest;
              bump durations (opening.cat, opening.name) 1
                (Float.max 0. (ev.ts -. opening.ts))
          | [] -> ())
      | Event.Counter -> ()
      | Event.Instant -> ());
      if ev.cat = "rule" then
        match Event.arg_str ev "rule" with
        | None -> ()
        | Some rule ->
            if ev.name = "rule-hit" then
              bump rule_matches rule
                (Option.value (Event.arg_int ev "matches") ~default:0)
                0.
            else if ev.name = "rule-ban" then bump ban_counts rule 1 0.)
    events;
  let by_cat cats =
    let tbl = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (c, name) v -> if List.mem c cats then Hashtbl.replace tbl name v)
      durations;
    rows tbl
  in
  let rules =
    List.map
      (fun (rule, hits) ->
        let matches =
          match Hashtbl.find_opt rule_matches rule with
          | Some (m, _) -> m
          | None -> 0
        in
        (rule, hits, matches))
      (Agg.rule_hits agg)
    |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
  in
  let bans =
    Hashtbl.fold (fun rule (count, _) acc -> (rule, count) :: acc) ban_counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    operators = by_cat [ "operator" ];
    phases = by_cat [ "phase"; "cache" ];
    rules;
    bans;
    iterations = Agg.iterations agg;
    matches = Agg.matches agg;
    unions = Agg.unions agg;
    nodes_peak = Agg.nodes_peak agg;
    classes_peak = Agg.classes_peak agg;
    collect_s = Agg.collect_s agg;
    apply_s = Agg.apply_s agg;
    rebuild_s = Agg.rebuild_s agg;
    minor_words = Agg.minor_words agg;
    cache_hits = Agg.cache_hits agg;
    cache_misses = Agg.cache_misses agg;
    cache_replays_failed = Agg.cache_replays_failed agg;
  }

let pp_rows ppf rows =
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-32s %6d %12.4f s@." r.label r.count r.total_s)
    rows

let pp ppf t =
  Fmt.pf ppf "Profile: %d iterations, %d matches, %d unions, peak e-graph \
              %d nodes / %d classes@."
    t.iterations t.matches t.unions t.nodes_peak t.classes_peak;
  (let lookups = t.cache_hits + t.cache_misses + t.cache_replays_failed in
   if lookups > 0 then
     Fmt.pf ppf
       "Cache: %d hits / %d misses / %d replay failures (%.0f%% hit rate)@."
       t.cache_hits t.cache_misses t.cache_replays_failed
       (100. *. float_of_int t.cache_hits /. float_of_int lookups));
  if t.operators <> [] then begin
    Fmt.pf ppf "@.Per-operator time:@.";
    Fmt.pf ppf "  %-32s %6s %14s@." "operator" "count" "total";
    pp_rows ppf t.operators
  end;
  if t.phases <> [] then begin
    Fmt.pf ppf "@.Per-phase time:@.";
    Fmt.pf ppf "  %-32s %6s %14s@." "phase" "count" "total";
    pp_rows ppf t.phases;
    if t.iterations > 0 then begin
      pp_rows ppf
        (List.map
           (fun (label, total_s) -> { label; count = t.iterations; total_s })
           [
             ("saturate.collect", t.collect_s);
             ("saturate.apply", t.apply_s);
             ("saturate.rebuild", t.rebuild_s);
           ]);
      Fmt.pf ppf "  %-32s %6d %12d words@." "saturate.minor_words"
        t.iterations t.minor_words
    end
  end;
  if t.rules <> [] then begin
    Fmt.pf ppf "@.Per-rule applications:@.";
    Fmt.pf ppf "  %-32s %8s %10s@." "rule" "unions" "matches";
    List.iter
      (fun (rule, hits, matches) ->
        Fmt.pf ppf "  %-32s %8d %10d@." rule hits matches)
      t.rules
  end;
  if t.bans <> [] then begin
    Fmt.pf ppf "@.Backoff bans:@.";
    List.iter (fun (rule, n) -> Fmt.pf ppf "  %-32s %8d@." rule n) t.bans
  end
