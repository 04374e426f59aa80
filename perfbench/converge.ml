(* Cold-start convergence of hard-state [reachability] on k x k grids
   with seeded link costs.  The program has no aggregate, so the runtime
   builds no views and walks no refresh: strands, inbox batching,
   simulator dispatch and message volume carry the cost.  One op is
   [Runtime.create] + [load_facts] + [run] to quiescence. *)

module R = Dist.Runtime
module S = Ndlog.Store

let sizes = [ 4; 5; 6; 7 ]

(* Ops cycle through sixteen rounds of the 4x4, 5x5 and 6x6 grids and
   then one 7x7 (indexes into [sizes]): the 7x7 is 2 % of the ops, so
   the p99 falls amid its samples rather than in the tail of the 6x6
   ones, and the median amid the 5x5 ones. *)
let schedule =
  Array.append (Array.concat (List.init 16 (fun _ -> [| 0; 1; 2 |]))) [| 3 |]
let preds = [ "link"; "reachable" ]
let warmup = 10
let tail = 0.99

type instance = {
  topo : Netsim.Topology.t;
  prog : Ndlog.Ast.program;  (* localized, links included *)
  oracle : S.t;  (* the centralized fixpoint over [preds] *)
}

let instance ~seed k =
  let node i j = Ndlog.Programs.node ((i * k) + j) in
  let cost a b = 1 + (Hashtbl.hash (seed, a, b) mod 9) in
  let links =
    List.concat
      (List.init k (fun i ->
           List.concat
             (List.init k (fun j ->
                  let right =
                    if j + 1 < k then
                      Ndlog.Programs.both (node i j) (node i (j + 1))
                        (cost (node i j) (node i (j + 1)))
                    else []
                  and down =
                    if i + 1 < k then
                      Ndlog.Programs.both (node i j) (node (i + 1) j)
                        (cost (node i j) (node (i + 1) j))
                    else []
                  in
                  right @ down))))
  in
  let full = Ndlog.Programs.with_links (Ndlog.Programs.reachability ()) links in
  let topo = Netsim.Topology.create () in
  List.iter
    (fun (f : Ndlog.Ast.fact) ->
      match f.Ndlog.Ast.fact_args with
      | [ s; d; c ] ->
        Netsim.Topology.add_link ~cost:(Ndlog.Value.as_int c) topo
          (Ndlog.Value.as_addr s) (Ndlog.Value.as_addr d)
      | _ -> ())
    links;
  let prog =
    match Ndlog.Localize.rewrite_program full with
    | Ok r -> r.Ndlog.Localize.program
    | Error e -> failwith (Fmt.str "%a" Ndlog.Localize.pp_error e)
  in
  { topo; prog; oracle = S.restrict preds (Ndlog.Eval.run_exn full).Ndlog.Eval.db }

let run ~seed ~seconds ~ops ~traced ~spans =
  let rt_trace = if traced then Some (Rt_trace.create ()) else None in
  let converge inst =
    let rt =
      match rt_trace with
      | Some t -> Rt_trace.runtime t inst.topo inst.prog
      | None -> R.create inst.topo inst.prog
    in
    R.load_facts rt;
    let rep = R.run rt in
    Option.iter (fun t -> Rt_trace.note_run t rep) rt_trace;
    (rt, rep)
  in
  let setup () =
    let insts = Array.of_list (List.map (instance ~seed) sizes) in
    (* Warm-up: every instance converges [warmup] times. *)
    for _ = 1 to warmup do
      Array.iter (fun inst -> ignore (converge inst)) insts
    done;
    Gc.compact ();
    insts
  in
  let insts, setup = Util.repeated_setup ~reps:5 setup in
  let round = Array.length schedule in
  Option.iter Rt_trace.reset rt_trace;
  let interned0 = Ndlog.Intern.size () and gc0 = Util.gc_mark () in
  let inserts = ref 0 and last = ref None in
  let fixpoints = Array.make (Array.length insts) "" in
  let checks = ref 0 and failures = ref [] in
  let op k =
    last := None;
    let go () = last := Some (converge insts.(schedule.(k mod round))) in
    match rt_trace with Some t -> Rt_trace.op t go | None -> go ()
  in
  (* Every op's output: quiescence and the centralized fixpoint. *)
  let between k =
    match !last with
    | None -> ()
    | Some (rt, rep) ->
      incr checks;
      inserts := !inserts + rep.R.total_inserts;
      let i = schedule.(k mod round) in
      let got = S.restrict preds (R.global_store rt) in
      if k < round then fixpoints.(i) <- S.to_string got;
      if not (rep.R.stats.Netsim.Sim.quiesced && S.equal got insts.(i).oracle)
      then
        failures :=
          Printf.sprintf "op %d: %s" k
            (if rep.R.stats.Netsim.Sim.quiesced then "fixpoint differs"
             else "did not quiesce")
          :: !failures
  in
  let w = Util.measure ?ops ~seconds ~round ~tail ~op ~between () in
  last := None;
  let intern = Util.intern_growth ~ops:w.n_ops interned0 in
  let live_words, gc = Util.gc_metrics ~ops:w.n_ops gc0 in
  let digest =
    String.concat "\n" (Array.to_list fixpoints @ [ string_of_int !inserts ])
    |> Digest.string |> Digest.to_hex
  in
  let layers =
    match rt_trace with
    | Some t ->
      Option.iter (Tracer.write t.Rt_trace.tr) spans;
      Rt_trace.metrics t ~inserts:!inserts
    | None -> intern :: gc
  in
  Util.result ~tail ~setup ~live_words ~checks:!checks
    ~failures:(List.rev !failures) ~digest ~layers w
