type protocol = Eager | Rendezvous

type msg = {
  m_src : int;
  m_dst : int;
  m_tag : int;
  m_bytes : int;
  m_comm : int;
  m_protocol : protocol;
  m_arrival : float;
  m_send_req : int;
  mutable m_reserved : bool;
}

type posted = {
  p_req : int;
  p_src : int option;
  p_tag : int option;
  p_comm : int;
  p_time : float;
}

let msg_matches_posted (m : msg) (p : posted) =
  m.m_comm = p.p_comm
  && (match p.p_src with None -> true | Some s -> s = m.m_src)
  && match p.p_tag with None -> true | Some t -> t = m.m_tag

let bucket tbl key =
  match Hashtbl.find_opt tbl key with
  | Some dq -> dq
  | None ->
      let dq = Util.Deque.create ~capacity:4 () in
      Hashtbl.replace tbl key dq;
      dq

(* ------------------------------------------------------------------ *)

module Unexpected = struct
  (* Arrival order is the matching order.  Concrete (src, tag, comm)
     patterns pop the head of their bucket; wildcard patterns scan the
     master arrival deque.  A cell taken through a bucket stays in the
     master deque (and vice versa) flagged [dead] until it reaches a
     head, so both views always agree on the earliest live match. *)
  type cell = { msg : msg; seq : int; mutable dead : bool }

  type t = {
    mutable next_seq : int;
    mutable live : int;
    buckets : (int * int * int, cell Util.Deque.t) Hashtbl.t; (* src, tag, comm *)
    mutable order : cell Util.Deque.t;
  }

  let create () =
    {
      next_seq = 0;
      live = 0;
      buckets = Hashtbl.create 64;
      order = Util.Deque.create ();
    }

  let length t = t.live

  let add t m =
    let cell = { msg = m; seq = t.next_seq; dead = false } in
    t.next_seq <- t.next_seq + 1;
    t.live <- t.live + 1;
    Util.Deque.push_back (bucket t.buckets (m.m_src, m.m_tag, m.m_comm)) cell;
    Util.Deque.push_back t.order cell

  let rec pop_live dq =
    match Util.Deque.pop_front dq with
    | Some c when c.dead -> pop_live dq
    | other -> other

  let rec drop_dead_head dq =
    match Util.Deque.peek_front dq with
    | Some c when c.dead ->
        ignore (Util.Deque.pop_front dq);
        drop_dead_head dq
    | _ -> ()

  (* Cells killed through the bucket view accumulate mid-deque in [order];
     rebuild it once the dead outnumber the live. *)
  let compact t =
    if Util.Deque.length t.order > (2 * t.live) + 32 then begin
      let fresh = Util.Deque.create ~capacity:(t.live + 1) () in
      Util.Deque.iter (fun c -> if not c.dead then Util.Deque.push_back fresh c) t.order;
      t.order <- fresh
    end

  let take t (p : posted) =
    let found =
      match (p.p_src, p.p_tag) with
      | Some s, Some tg -> (
          match Hashtbl.find_opt t.buckets (s, tg, p.p_comm) with
          | None -> None
          | Some dq -> pop_live dq)
      | _ ->
          (* Wildcard: earliest arrival wins, so scan the master deque.
             The cell found is necessarily at the live head of its own
             bucket; mark it dead and let that bucket skip it later. *)
          drop_dead_head t.order;
          Util.Deque.find_first
            (fun c -> (not c.dead) && msg_matches_posted c.msg p)
            t.order
    in
    match found with
    | None -> None
    | Some c ->
        c.dead <- true;
        t.live <- t.live - 1;
        compact t;
        Some c.msg

  let bucket_count t = Hashtbl.length t.buckets
  let raw_length t = Util.Deque.length t.order
end

(* ------------------------------------------------------------------ *)

module Posted = struct
  (* Post order is the matching order.  Patterns bucket by their exact
     shape — (src|ANY, tag|ANY, comm) — so an arriving message can only
     match the head of one of four buckets; the earliest post sequence
     among those heads wins.  Cells never die in place: a posted receive
     is always consumed from the head of its bucket. *)
  type cell = { post : posted; seq : int }

  let any = min_int (* wildcard slot in a bucket key; never a valid rank/tag *)

  type t = {
    mutable next_seq : int;
    mutable live : int;
    buckets : (int * int * int, cell Util.Deque.t) Hashtbl.t;
  }

  let create () = { next_seq = 0; live = 0; buckets = Hashtbl.create 64 }
  let length t = t.live

  let key_of (p : posted) =
    ( (match p.p_src with Some s -> s | None -> any),
      (match p.p_tag with Some t -> t | None -> any),
      p.p_comm )

  let add t p =
    let cell = { post = p; seq = t.next_seq } in
    t.next_seq <- t.next_seq + 1;
    t.live <- t.live + 1;
    Util.Deque.push_back (bucket t.buckets (key_of p)) cell

  let candidate_keys ~src ~tag ~comm =
    [ (src, tag, comm); (src, any, comm); (any, tag, comm); (any, any, comm) ]

  let best_bucket t ~src ~tag ~comm =
    List.fold_left
      (fun best key ->
        match Hashtbl.find_opt t.buckets key with
        | None -> best
        | Some dq -> (
            match Util.Deque.peek_front dq with
            | None -> best
            | Some c -> (
                match best with
                | Some (bc, _) when bc.seq <= c.seq -> best
                | _ -> Some (c, dq))))
      None
      (candidate_keys ~src ~tag ~comm)

  let take t ~src ~tag ~comm =
    match best_bucket t ~src ~tag ~comm with
    | None -> None
    | Some (c, dq) ->
        ignore (Util.Deque.pop_front dq);
        t.live <- t.live - 1;
        Some c.post

  let mem t ~src ~tag ~comm = best_bucket t ~src ~tag ~comm <> None
  let bucket_count t = Hashtbl.length t.buckets
end
