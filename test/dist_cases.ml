(* The dist differential inputs, defined once: every program × topology
   × size × staging slice the runtime's refresh modes are compared on,
   pinned by the golden corpus, and checked against the view
   invariant.  Each input is a plain record, so every failure names a
   replayable case. *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module Eval = Ndlog.Eval
module Programs = Ndlog.Programs
module Localize = Ndlog.Localize
module V = Ndlog.Value
module Topo = Netsim.Topology
module Runtime = Dist.Runtime

(* Build the simulator topology matching a set of link facts. *)
let topo_of_links links =
  let t = Topo.create () in
  List.iter
    (fun (f : Ast.fact) ->
      match f.Ast.fact_args with
      | [ s; d; c ] ->
        Topo.add_link ~cost:(V.as_int c) t (V.as_addr s) (V.as_addr d)
      | _ -> ())
    links;
  t

let localized p =
  match Localize.rewrite_program p with
  | Ok r -> r.Localize.program
  | Error e -> failwith (Fmt.str "localization failed: %a" Localize.pp_error e)

(* Soft support under a shipped soft view: obs expires, best is
   withdrawn, rep's remote lease lapses. *)
let ship_view_src =
  {|
materialize(link, infinity).
materialize(obs, 3).
materialize(noise, infinity).
materialize(best, infinity).
materialize(rep, 10).

v1 best(@S, D, min<C>) :- obs(@S, D, C).
v2 rep(@D, S, C) :- best(@S, D, C).
|}

(* A view tuple derived at its owner and also shipped in by a peer: d
   derives tag(d, d) from fix, and s ships the same tuple while its
   soft obs lives.  Once obs expires s stops renewing, the shipped
   lease lapses, and the expiry sweep removes a tuple d still derives —
   the next refresh must restore it. *)
let hole_src =
  {|
materialize(link, infinity).
materialize(obs, 3).
materialize(fix, infinity).
materialize(best, infinity).
materialize(tag, 4).

v1 best(@S, X, min<C>) :- obs(@S, X, C).
v2 tag(@D, X) :- best(@S, X, C), link(@S, D, C2).
v3 tag(@S, X) :- fix(@S, X).
|}

type case = { prog : int; topo : int; n : int; extra : int }

let prog_names = [| "pv"; "bdv"; "ship"; "hole" |]
let topo_names = [| "ring"; "grid"; "star" |]

let name c =
  Printf.sprintf "%s-%s-n%d-x%d" prog_names.(c.prog) topo_names.(c.topo) c.n
    c.extra

(* Every input: [extra] selects the staged slice [i mod 3 = extra], so
   0..2 covers every slice. *)
let all =
  List.concat_map
    (fun prog ->
      List.concat_map
        (fun topo ->
          List.concat_map
            (fun n -> List.map (fun extra -> { prog; topo; n; extra }) [ 0; 1; 2 ])
            [ 3; 4; 5; 6 ])
        [ 0; 1; 2 ])
    [ 0; 1; 2; 3 ]

let links c =
  match c.topo with
  | 0 -> Programs.ring_links c.n
  | 1 -> Programs.grid_links (2 + (c.n mod 2))
  | _ -> Programs.star_links c.n

(* A deterministic slice of the links drives the staged mid-run
   insertions (new costs / refreshed observations). *)
let staged c =
  List.filter_map
    (fun (f : Ast.fact) ->
      match f.Ast.fact_args with
      | [ s; d; _ ] -> Some (V.as_addr s, V.as_addr d)
      | _ -> None)
    (links c)
  |> List.filteri (fun i _ -> i mod 3 = c.extra mod 3)

let soft c = c.prog >= 2

let program c =
  let links = links c in
  let with_facts src facts =
    let p = Programs.with_links (Programs.parse_exn src) links in
    { p with Ast.facts = p.Ast.facts @ List.concat_map facts (staged c) }
  in
  match c.prog with
  | 0 -> localized (Programs.with_links (Programs.path_vector ()) links)
  | 1 ->
    localized
      (Programs.with_links
         (Programs.bounded_distance_vector ~max_hops:(c.n + 1))
         links)
  | 2 ->
    with_facts ship_view_src (fun (s, d) ->
        [ Ast.fact ~loc:0 "obs" [ V.Addr s; V.Addr d; V.Int 7 ] ])
  | _ ->
    with_facts hole_src (fun (s, d) ->
        [
          Ast.fact ~loc:0 "obs" [ V.Addr s; V.Addr d; V.Int 7 ];
          Ast.fact ~loc:0 "fix" [ V.Addr d; V.Addr d ];
        ])

let nodes c = List.sort String.compare (Topo.nodes (topo_of_links (links c)))

(* Run one input to its end state: facts at time zero, the staged
   insertions interleaved with partial runs so refreshes land between
   (and during) lease windows, then run out to t = 80. *)
let run ~incremental_views c =
  let rt =
    Runtime.create ~incremental_views (topo_of_links (links c)) (program c)
  in
  Netsim.Sim.set_tracing (Runtime.simulator rt) true;
  Runtime.load_facts rt;
  ignore (Runtime.run rt ~until:1.0);
  List.iteri
    (fun i (s, d) ->
      if soft c then
        Runtime.insert rt s "obs" [| V.Addr s; V.Addr d; V.Int (9 + i) |]
      else Runtime.insert rt s "link" [| V.Addr s; V.Addr d; V.Int (2 + i) |];
      ignore (Runtime.run rt ~until:(1.5 +. (0.5 *. float_of_int i))))
    (staged c);
  let rep = Runtime.run rt ~until:80.0 in
  (rt, rep)

(* The observable end state as text: quiescence, insert count, the
   strand and view join counters, the message trace, and every node's
   store and lease bindings (floats in exact hex). *)
let observe c (rt, (rep : Runtime.run_report)) =
  let b = Buffer.create 4096 in
  let stats tag (s : Eval.stats) =
    Printf.bprintf b "%s %d %d %d %d %d %d %d %d %d\n" tag s.Eval.index_hits
      s.Eval.scans s.Eval.enumerated s.Eval.matched s.Eval.groups
      s.Eval.group_probes s.Eval.delta_tuples s.Eval.strata_skipped
      s.Eval.refresh_fallbacks
  in
  Printf.bprintf b "quiesced %b inserts %d\n" rep.Runtime.stats.Netsim.Sim.quiesced
    rep.Runtime.total_inserts;
  stats "wire" rep.Runtime.wire_stats;
  stats "view" rep.Runtime.view_stats;
  List.iter
    (fun (t, s) -> Printf.bprintf b "%h %s\n" t s)
    (Netsim.Sim.trace (Runtime.simulator rt));
  List.iter
    (fun nm ->
      Printf.bprintf b "node %s\n" nm;
      List.iter
        (fun (pred, tuple) ->
          Printf.bprintf b "%s%s\n" pred (Fmt.str "%a" Store.Tuple.pp tuple))
        (Store.to_list (Runtime.node_store rt nm));
      List.iter
        (fun ((pred, tuple), deadline) ->
          Printf.bprintf b "lease %s%s %h\n" pred
            (Fmt.str "%a" Store.Tuple.pp tuple)
            deadline)
        (Runtime.node_leases rt nm))
    (nodes c);
  Buffer.contents b

(* One corpus line: the input's name, then the incremental and the
   from-scratch digests — each with quiescence and insert count in the
   clear (so a drift there reads at a glance), the rest as an MD5. *)
let corpus_line c =
  let digest incremental_views =
    let ((_, rep) as r) = run ~incremental_views c in
    Printf.sprintf "%b/%d/%s" rep.Runtime.stats.Netsim.Sim.quiesced
      rep.Runtime.total_inserts
      (Digest.to_hex (Digest.string (observe c r)))
  in
  Printf.sprintf "%s %s %s" (name c) (digest true) (digest false)
