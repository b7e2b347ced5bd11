open Mpisim

let t name f = Alcotest.test_case name `Quick f

let fin ctx = Mpi.finalize ctx

(* two-rank helper: rank 0 runs [f0], rank 1 runs [f1] *)
let pairwise f0 f1 =
  Mpi.run ~nranks:2 (fun ctx ->
      (if ctx.rank = 0 then f0 ctx else f1 ctx);
      fin ctx)

let p2p_tests =
  [
    t "blocking send/recv delivers" (fun () ->
        let got = ref (-1) in
        let _ =
          pairwise
            (fun ctx -> Mpi.send ctx ~dst:1 ~bytes:100)
            (fun ctx ->
              let st = Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:100 in
              got := st.received_bytes)
        in
        Alcotest.(check int) "bytes" 100 !got);
    t "status reports source and tag" (fun () ->
        let src = ref (-1) and tag = ref (-1) in
        let _ =
          pairwise
            (fun ctx -> Mpi.send ~tag:42 ctx ~dst:1 ~bytes:8)
            (fun ctx ->
              let st = Mpi.recv ctx ~src:Call.Any_source ~bytes:8 in
              src := st.actual_source;
              tag := st.actual_tag)
        in
        Alcotest.(check int) "src" 0 !src;
        Alcotest.(check int) "tag" 42 !tag);
    t "tag matching filters" (fun () ->
        (* rank0 sends tag 1 then tag 2; rank1 receives tag 2 first *)
        let order = ref [] in
        let _ =
          pairwise
            (fun ctx ->
              Mpi.send ~tag:1 ctx ~dst:1 ~bytes:10;
              Mpi.send ~tag:2 ctx ~dst:1 ~bytes:20)
            (fun ctx ->
              let a = Mpi.recv ~tag:(Call.Tag 2) ctx ~src:(Call.Rank 0) ~bytes:20 in
              let b = Mpi.recv ~tag:(Call.Tag 1) ctx ~src:(Call.Rank 0) ~bytes:10 in
              order := [ a.actual_tag; b.actual_tag ])
        in
        Alcotest.(check (list int)) "order" [ 2; 1 ] !order);
    t "non-overtaking per pair same tag" (fun () ->
        let sizes = ref [] in
        let _ =
          pairwise
            (fun ctx ->
              Mpi.send ctx ~dst:1 ~bytes:1;
              Mpi.send ctx ~dst:1 ~bytes:2;
              Mpi.send ctx ~dst:1 ~bytes:3)
            (fun ctx ->
              for _ = 1 to 3 do
                let st = Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:3 in
                sizes := st.received_bytes :: !sizes
              done)
        in
        Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !sizes));
    t "isend/irecv with waitall" (fun () ->
        let o =
          pairwise
            (fun ctx ->
              let s = Mpi.isend ctx ~dst:1 ~bytes:64 in
              ignore (Mpi.waitall ctx [ s ]))
            (fun ctx ->
              let r = Mpi.irecv ctx ~src:(Call.Rank 0) ~bytes:64 in
              let st = Mpi.wait ctx r in
              assert (st.received_bytes = 64))
        in
        Alcotest.(check int) "messages" 1 o.messages);
    t "wildcard matches earliest arrival deterministically" (fun () ->
        let first = ref (-1) in
        let _ =
          Mpi.run ~nranks:3 (fun ctx ->
              (if ctx.rank = 0 then begin
                 let st = Mpi.recv ctx ~src:Call.Any_source ~bytes:8 in
                 first := st.actual_source;
                 ignore (Mpi.recv ctx ~src:Call.Any_source ~bytes:8)
               end
               else begin
                 (* rank 2 sends later than rank 1 *)
                 Mpi.compute ctx (float_of_int ctx.rank *. 1e-3);
                 Mpi.send ctx ~dst:0 ~bytes:8
               end);
              fin ctx)
        in
        Alcotest.(check int) "first is rank 1" 1 !first);
    t "sendrecv exchange" (fun () ->
        let o =
          Mpi.run ~nranks:4 (fun ctx ->
              let right = (ctx.rank + 1) mod 4 and left = (ctx.rank + 3) mod 4 in
              ignore
                (Mpi.sendrecv ctx ~dst:right ~send_bytes:32 ~src:(Call.Rank left)
                   ~recv_bytes:32);
              fin ctx)
        in
        Alcotest.(check int) "messages" 4 o.messages);
    t "rendezvous timing waits for receiver" (fun () ->
        (* 1 MiB message: sender must wait for the delayed receiver *)
        let big = 1 lsl 20 in
        let o =
          pairwise
            (fun ctx -> Mpi.send ctx ~dst:1 ~bytes:big)
            (fun ctx ->
              Mpi.compute ctx 0.05;
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:big))
        in
        Alcotest.(check bool) "elapsed >= receiver delay" true (o.elapsed >= 0.05));
    t "eager send completes before receiver posts" (fun () ->
        (* sender finishes its send long before the receiver wakes up *)
        let sender_done = ref infinity in
        let _ =
          pairwise
            (fun ctx ->
              Mpi.send ctx ~dst:1 ~bytes:512;
              sender_done := Mpi.wtime ctx)
            (fun ctx ->
              Mpi.compute ctx 0.1;
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:512))
        in
        Alcotest.(check bool) "sender early" true (!sender_done < 0.01));
    t "self-send rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Mpi.run ~nranks:2 (fun ctx ->
                    if ctx.rank = 0 then Mpi.send ctx ~dst:0 ~bytes:1;
                    fin ctx));
             false
           with Engine.Mpi_error _ -> true));
  ]

let coll_tests =
  [
    t "barrier synchronizes clocks" (fun () ->
        let times = Array.make 4 0. in
        let _ =
          Mpi.run ~nranks:4 (fun ctx ->
              Mpi.compute ctx (float_of_int ctx.rank *. 0.01);
              Mpi.barrier ctx;
              times.(ctx.rank) <- Mpi.wtime ctx;
              fin ctx)
        in
        Array.iter
          (fun t' -> Alcotest.(check bool) "after slowest" true (t' >= 0.03))
          times);
    t "collective mismatch detected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Mpi.run ~nranks:2 (fun ctx ->
                    if ctx.rank = 0 then Mpi.barrier ctx
                    else Mpi.allreduce ctx ~bytes:8;
                    fin ctx));
             false
           with Engine.Mpi_error _ -> true));
    t "missing finalize detected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Mpi.run ~nranks:1 (fun _ -> ()));
             false
           with Engine.Mpi_error _ -> true));
    t "comm_split groups by color" (fun () ->
        let sizes = Array.make 6 0 in
        let _ =
          Mpi.run ~nranks:6 (fun ctx ->
              let c = Mpi.comm_split ctx ~color:(ctx.rank mod 2) ~key:ctx.rank in
              sizes.(ctx.rank) <- Mpi.comm_size c;
              fin ctx)
        in
        Array.iter (fun s -> Alcotest.(check int) "size 3" 3 s) sizes);
    t "comm_split key orders members" (fun () ->
        let local = Array.make 4 (-1) in
        let _ =
          Mpi.run ~nranks:4 (fun ctx ->
              (* reversed keys reverse the local numbering *)
              let c = Mpi.comm_split ctx ~color:0 ~key:(-ctx.rank) in
              local.(ctx.rank) <- Mpi.comm_rank c ctx;
              fin ctx)
        in
        Alcotest.(check (array int)) "reversed" [| 3; 2; 1; 0 |] local);
    t "comm_dup preserves membership" (fun () ->
        let ok = ref true in
        let _ =
          Mpi.run ~nranks:3 (fun ctx ->
              let c = Mpi.comm_dup ctx in
              if Mpi.comm_size c <> 3 || Mpi.comm_rank c ctx <> ctx.rank then
                ok := false;
              fin ctx)
        in
        Alcotest.(check bool) "dup" true !ok);
    t "p2p within subcommunicator uses local ranks" (fun () ->
        let got = ref (-1) in
        let _ =
          Mpi.run ~nranks:4 (fun ctx ->
              let c = Mpi.comm_split ctx ~color:(ctx.rank / 2) ~key:ctx.rank in
              (* world 2 is local 0 of the high group; world 3 local 1 *)
              if ctx.rank = 2 then Mpi.send ~comm:c ctx ~dst:1 ~bytes:8
              else if ctx.rank = 3 then begin
                let st = Mpi.recv ~comm:c ctx ~src:(Call.Rank 0) ~bytes:8 in
                got := st.actual_source
              end;
              fin ctx)
        in
        Alcotest.(check int) "local src" 0 !got);
    t "communicators isolate matching" (fun () ->
        (* same tag on two comms must not cross-match *)
        let ok = ref true in
        let _ =
          Mpi.run ~nranks:2 (fun ctx ->
              let c = Mpi.comm_dup ctx in
              if ctx.rank = 0 then begin
                Mpi.send ~comm:ctx.world ~tag:7 ctx ~dst:1 ~bytes:11;
                Mpi.send ~comm:c ~tag:7 ctx ~dst:1 ~bytes:22
              end
              else begin
                let a = Mpi.recv ~comm:c ~tag:(Call.Tag 7) ctx ~src:(Call.Rank 0) ~bytes:22 in
                let b =
                  Mpi.recv ~comm:ctx.world ~tag:(Call.Tag 7) ctx ~src:(Call.Rank 0) ~bytes:11
                in
                if a.received_bytes <> 22 || b.received_bytes <> 11 then ok := false
              end;
              fin ctx)
        in
        Alcotest.(check bool) "isolated" true !ok);
    t "allreduce cost grows with log p" (fun () ->
        let run p =
          (Mpi.run ~nranks:p (fun ctx ->
               Mpi.allreduce ctx ~bytes:8;
               fin ctx))
            .elapsed
        in
        Alcotest.(check bool) "monotone" true (run 16 > run 4));
    t "collectives ordered per communicator" (fun () ->
        (* two barriers in sequence complete without interference *)
        let o =
          Mpi.run ~nranks:3 (fun ctx ->
              Mpi.barrier ctx;
              Mpi.barrier ctx;
              Mpi.allreduce ctx ~bytes:4;
              fin ctx)
        in
        Alcotest.(check bool) "done" true (o.elapsed > 0.));
  ]

let engine_tests =
  [
    t "deadlock detection: mutual blocking recv" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (pairwise
                  (fun ctx -> ignore (Mpi.recv ctx ~src:(Call.Rank 1) ~bytes:8))
                  (fun ctx -> ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:8)));
             false
           with Engine.Deadlock _ -> true));
    t "deadlock report: collective waits name their missing members"
      (fun () ->
        (* ranks 0 and 2 meet in a neighborhood exchange over {0,2}, but
           rank 2 first waits for a message rank 1 never sends; ranks 1
           and 3 wait in MPI_Finalize for the whole world *)
        let report =
          try
            ignore
              (Mpi.run ~nranks:4 (fun ctx ->
                   (match ctx.rank with
                   | 0 ->
                       Mpi.neighbor_alltoall ~parts:[| 0; 2 |] ctx
                         ~neighbors:[| 2 |] ~bytes_per_neighbor:8
                   | 2 ->
                       ignore (Mpi.recv ctx ~src:(Call.Rank 1) ~bytes:8);
                       Mpi.neighbor_alltoall ~parts:[| 0; 2 |] ctx
                         ~neighbors:[| 0 |] ~bytes_per_neighbor:8
                   | _ -> ());
                   Mpi.finalize ctx));
            ""
          with Engine.Deadlock msg -> msg
        in
        let edge rank rest =
          List.exists
            (fun line ->
              String.starts_with ~prefix:(Printf.sprintf "  rank %d blocked in " rank) line
              && String.ends_with ~suffix:rest line)
            (String.split_on_char '\n' report)
        in
        Alcotest.(check bool) "rank 0 waits for 2" true
          (edge 0 "<- waiting on rank(s) 2");
        Alcotest.(check bool) "rank 1 waits for 0 and 2" true
          (edge 1 "<- waiting on rank(s) 0,2");
        Alcotest.(check bool) "rank 2 waits for 1" true
          (edge 2 "<- waiting on rank(s) 1");
        Alcotest.(check bool) "rank 3 waits for 0 and 2" true
          (edge 3 "<- waiting on rank(s) 0,2"));
    t "determinism: identical runs identical clocks" (fun () ->
        let app (ctx : Mpi.ctx) =
          let n = ctx.nranks in
          for _ = 1 to 10 do
            let r = Mpi.irecv ctx ~src:(Call.Rank ((ctx.rank + n - 1) mod n)) ~bytes:2048 in
            let s = Mpi.isend ctx ~dst:((ctx.rank + 1) mod n) ~bytes:2048 in
            ignore (Mpi.waitall ctx [ r; s ]);
            Mpi.compute ctx 1e-5
          done;
          fin ctx
        in
        let a = Mpi.run ~nranks:8 app and b = Mpi.run ~nranks:8 app in
        Alcotest.(check (float 0.)) "elapsed" a.elapsed b.elapsed;
        Alcotest.(check int) "events" a.events b.events);
    t "compute advances virtual clock only" (fun () ->
        let o =
          Mpi.run ~nranks:1 (fun ctx ->
              Mpi.compute ctx 123.0;
              fin ctx)
        in
        Alcotest.(check bool) "elapsed" true (o.elapsed >= 123.0));
    t "compute rejects negative" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Mpi.run ~nranks:1 (fun ctx -> Mpi.compute ctx (-1.); fin ctx));
             false
           with Engine.Mpi_error _ -> true));
    t "outcome counts messages and bytes" (fun () ->
        let o =
          pairwise
            (fun ctx ->
              Mpi.send ctx ~dst:1 ~bytes:100;
              Mpi.send ctx ~dst:1 ~bytes:200)
            (fun ctx ->
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:100);
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:200))
        in
        Alcotest.(check int) "messages" 2 o.messages;
        Alcotest.(check int) "bytes" 300 o.p2p_bytes);
    t "unexpected messages counted" (fun () ->
        let o =
          pairwise
            (fun ctx -> Mpi.send ctx ~dst:1 ~bytes:10)
            (fun ctx ->
              Mpi.compute ctx 0.01;
              ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:10))
        in
        Alcotest.(check int) "unexpected" 1 o.unexpected);
    t "flow control stalls and recovers" (fun () ->
        (* flood a sleeping receiver past its unexpected buffer *)
        let net =
          { Netmodel.bluegene_l with unexpected_buffer_bytes = 4096; resume_latency = 1e-4 }
        in
        let o =
          Mpi.run ~net ~nranks:2 (fun ctx ->
              (if ctx.rank = 0 then
                 for _ = 1 to 20 do
                   Mpi.send ctx ~dst:1 ~bytes:1024
                 done
               else begin
                 Mpi.compute ctx 0.01;
                 for _ = 1 to 20 do
                   ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:1024)
                 done
               end);
              fin ctx)
        in
        Alcotest.(check bool) "stalled" true (o.flow_stalls > 0));
    t "oversize eager message still delivered (liveness)" (fun () ->
        let net = { Netmodel.bluegene_l with unexpected_buffer_bytes = 100 } in
        let o =
          Mpi.run ~net ~nranks:2 (fun ctx ->
              (if ctx.rank = 0 then Mpi.send ctx ~dst:1 ~bytes:1024
               else ignore (Mpi.recv ctx ~src:(Call.Rank 0) ~bytes:1024));
              fin ctx)
        in
        Alcotest.(check int) "delivered" 1 o.messages);
    t "wtime monotone" (fun () ->
        let ok = ref true in
        let _ =
          Mpi.run ~nranks:1 (fun ctx ->
              let t1 = Mpi.wtime ctx in
              Mpi.compute ctx 1.0;
              let t2 = Mpi.wtime ctx in
              if t2 < t1 +. 1.0 then ok := false;
              fin ctx)
        in
        Alcotest.(check bool) "monotone" true !ok);
    t "perform outside run rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Engine.perform
                  { op = Call.Barrier; comm = Comm.world 2; site = Util.Callsite.unknown });
             false
           with Engine.Mpi_error _ -> true));
    t "nranks must be positive" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Mpi.run ~nranks:0 fin);
             false
           with Engine.Mpi_error _ -> true));
    t "many ranks ring completes" (fun () ->
        let o =
          Mpi.run ~nranks:128 (fun ctx ->
              let n = ctx.nranks in
              let r = Mpi.irecv ctx ~src:(Call.Rank ((ctx.rank + n - 1) mod n)) ~bytes:8 in
              let s = Mpi.isend ctx ~dst:((ctx.rank + 1) mod n) ~bytes:8 in
              ignore (Mpi.waitall ctx [ r; s ]);
              fin ctx)
        in
        Alcotest.(check int) "messages" 128 o.messages);
  ]

let comm_unit_tests =
  [
    t "world mapping" (fun () ->
        let c = Comm.world 4 in
        Alcotest.(check int) "size" 4 (Comm.size c);
        Alcotest.(check int) "w2l" 2 (Comm.world_of_local c 2);
        Alcotest.(check (option int)) "l2w" (Some 3) (Comm.local_of_world c 3));
    t "make rejects duplicates" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Comm.make ~id:1 ~members:[| 0; 1; 0 |]);
             false
           with Invalid_argument _ -> true));
    t "subcomm translation" (fun () ->
        let c = Comm.make ~id:5 ~members:[| 7; 3; 9 |] in
        Alcotest.(check int) "local 1 -> world 3" 3 (Comm.world_of_local c 1);
        Alcotest.(check (option int)) "world 9 -> local 2" (Some 2) (Comm.local_of_world c 9);
        Alcotest.(check (option int)) "non-member" None (Comm.local_of_world c 0);
        Alcotest.(check bool) "member" true (Comm.is_member c ~world:7));
    t "out of range local rank" (fun () ->
        let c = Comm.world 2 in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Comm.world_of_local c 5);
             false
           with Invalid_argument _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* Differential tests: the hash-indexed matching queues against the
   list-scan oracle {!Reference.Matchq} on random interleavings.  Small
   src/tag/comm domains make patterns collide, about 30% of receive
   patterns carry a wildcard, and bursts of adds followed by bursts of
   removals build queues deep enough for {!Matchq.Unexpected} to compact
   its arrival deque.  Every result and every length must agree. *)

let gen_coords =
  QCheck.Gen.(triple (int_bound 3) (int_bound 2) (int_bound 1))

let gen_pattern =
  QCheck.Gen.(
    let* src, tag, comm = gen_coords in
    frequency
      [
        (7, return (Some src, Some tag, comm));
        (1, return (None, Some tag, comm));
        (1, return (Some src, None, comm));
        (1, return (None, None, comm));
      ])

(* One to eight bursts, each up to 60 adds then up to 80 removals. *)
let gen_bursts ~add ~remove =
  QCheck.Gen.(
    let burst =
      let* adds = int_bound 60 and* removes = int_bound 80 in
      let* a = list_repeat adds add and* r = list_repeat removes remove in
      return (a @ r)
    in
    let* n = int_range 1 8 in
    map List.concat (list_repeat n burst))

let show_pattern (s, t, c) =
  let f = function None -> "*" | Some v -> string_of_int v in
  Printf.sprintf "(%s,%s,%d)" (f s) (f t) c

type u_op = U_add of int * int * int | U_take of (int option * int option * int)

let show_u_op = function
  | U_add (s, t, c) -> Printf.sprintf "add(%d,%d,%d)" s t c
  | U_take p -> "take" ^ show_pattern p

let u_ops =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_u_op ops))
    (gen_bursts
       ~add:(QCheck.Gen.map (fun (s, t, c) -> U_add (s, t, c)) gen_coords)
       ~remove:(QCheck.Gen.map (fun p -> U_take p) gen_pattern))

(* Concrete takes never shorten the master deque except by compacting
   it, so a shorter deque after one counts a compaction. *)
let u_compactions = ref 0

let unexpected_agrees ops =
  let ix = Matchq.Unexpected.create () and rf = Reference.Matchq.Unexpected.create () in
  let id = ref 0 in
  List.for_all
    (fun op ->
      match op with
      | U_add (m_src, m_tag, m_comm) ->
          incr id;
          let m =
            {
              Matchq.m_src; m_dst = 0; m_tag; m_bytes = 8; m_comm;
              m_protocol = Matchq.Eager; m_arrival = 0.; m_send_req = !id;
              m_reserved = false;
            }
          in
          Matchq.Unexpected.add ix m;
          Reference.Matchq.Unexpected.add rf m;
          Matchq.Unexpected.length ix = Reference.Matchq.Unexpected.length rf
      | U_take (p_src, p_tag, p_comm) ->
          let p = { Matchq.p_req = 0; p_src; p_tag; p_comm; p_time = 0. } in
          let raw = Matchq.Unexpected.raw_length ix in
          let got = Matchq.Unexpected.take ix p in
          if p_src <> None && p_tag <> None && Matchq.Unexpected.raw_length ix < raw
          then incr u_compactions;
          let req = Option.map (fun (m : Matchq.msg) -> m.m_send_req) in
          req got = req (Reference.Matchq.Unexpected.take rf p)
          && Matchq.Unexpected.length ix = Reference.Matchq.Unexpected.length rf)
    ops

type p_op = P_add of (int option * int option * int) | P_take of int * int * int | P_mem of int * int * int

let show_p_op = function
  | P_add p -> "post" ^ show_pattern p
  | P_take (s, t, c) -> Printf.sprintf "take(%d,%d,%d)" s t c
  | P_mem (s, t, c) -> Printf.sprintf "mem(%d,%d,%d)" s t c

let p_ops =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_p_op ops))
    (gen_bursts
       ~add:(QCheck.Gen.map (fun p -> P_add p) gen_pattern)
       ~remove:
         QCheck.Gen.(
           let* s, t, c = gen_coords in
           frequency [ (3, return (P_take (s, t, c))); (1, return (P_mem (s, t, c))) ]))

let posted_agrees ops =
  let ix = Matchq.Posted.create () and rf = Reference.Matchq.Posted.create () in
  let id = ref 0 in
  List.for_all
    (fun op ->
      match op with
      | P_add (p_src, p_tag, p_comm) ->
          incr id;
          let p = { Matchq.p_req = !id; p_src; p_tag; p_comm; p_time = 0. } in
          Matchq.Posted.add ix p;
          Reference.Matchq.Posted.add rf p;
          Matchq.Posted.length ix = Reference.Matchq.Posted.length rf
      | P_take (src, tag, comm) ->
          let req = Option.map (fun (p : Matchq.posted) -> p.p_req) in
          req (Matchq.Posted.take ix ~src ~tag ~comm)
          = req (Reference.Matchq.Posted.take rf ~src ~tag ~comm)
          && Matchq.Posted.length ix = Reference.Matchq.Posted.length rf
      | P_mem (src, tag, comm) ->
          Matchq.Posted.mem ix ~src ~tag ~comm
          = Reference.Matchq.Posted.mem rf ~src ~tag ~comm)
    ops

let check_prop ~seed ~name arb prop =
  QCheck.Test.check_exn
    ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~name ~count:250 arb prop)

let differential_tests =
  [
    t "unexpected queue = list-scan reference on 250 random interleavings"
      (fun () ->
        u_compactions := 0;
        check_prop ~seed:20261017 ~name:"unexpected" u_ops unexpected_agrees;
        Alcotest.(check bool) "some sequences compact the arrival deque" true
          (!u_compactions > 0));
    t "posted queue = list-scan reference on 250 random interleavings"
      (fun () -> check_prop ~seed:20261018 ~name:"posted" p_ops posted_agrees);
  ]

let suite =
  p2p_tests @ coll_tests @ engine_tests @ comm_unit_tests @ differential_tests
