type key = { comm : int; psig : string; slot : int }

let signature parts =
  if Array.length parts = 0 then ""
  else String.concat "," (Array.to_list (Array.map string_of_int parts))

type 'a wait = {
  key : key;
  members : int array; (* as given *)
  sorted : int array; (* ascending; [members] itself when already sorted *)
  arrived : Bytes.t; (* by [sorted] position *)
  mutable n_arrived : int;
  mutable scan : int; (* every [sorted] position below has arrived *)
  mutable arrivals : 'a list; (* newest first *)
}

let key w = w.key
let members w = w.members
let arrivals w = w.arrivals

let make key members =
  let rec ascending i =
    i >= Array.length members
    || (members.(i - 1) < members.(i) && ascending (i + 1))
  in
  let sorted =
    if ascending 1 then members
    else
      let s = Array.copy members in
      Array.sort Int.compare s;
      s
  in
  let n = Array.length members in
  { key; members; sorted; arrived = Bytes.make n '\000'; n_arrived = 0;
    scan = 0; arrivals = [] }

(* Position of [r] in [w.sorted], or -1. *)
let position w r =
  let rec go lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let m = w.sorted.(mid) in
      if m = r then mid else if m < r then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length w.sorted - 1)

let has_arrived w i = Bytes.get w.arrived i <> '\000'

let missing w =
  List.filteri (fun i _ -> not (has_arrived w i)) (Array.to_list w.sorted)

let smallest_missing w =
  let n = Array.length w.sorted in
  while w.scan < n && has_arrived w w.scan do
    w.scan <- w.scan + 1
  done;
  if w.scan < n then w.sorted.(w.scan)
  else invalid_arg "Rendezvous.smallest_missing: complete wait"

type 'a t = {
  waits : (key, 'a wait) Hashtbl.t;
  slots : (int * int * string, int ref) Hashtbl.t;
      (* (rank, comm, psig) -> the rank's next slot there *)
}

let create () = { waits = Hashtbl.create 64; slots = Hashtbl.create 64 }

type 'a arrival = Parked of 'a wait | Complete of 'a wait | Not_member of 'a wait

let arrive t ~rank ~comm ~psig ~members payload =
  let slot =
    match Hashtbl.find_opt t.slots (rank, comm, psig) with
    | Some next ->
        incr next;
        !next - 1
    | None ->
        Hashtbl.add t.slots (rank, comm, psig) (ref 1);
        0
  in
  let key = { comm; psig; slot } in
  let w =
    match Hashtbl.find_opt t.waits key with
    | Some w -> w
    | None ->
        let w = make key (members ()) in
        Hashtbl.add t.waits key w;
        w
  in
  let i = position w rank in
  if i < 0 then Not_member w
  else begin
    (* slots are per rank, so a rank reaches a given wait at most once *)
    Bytes.set w.arrived i '\001';
    w.n_arrived <- w.n_arrived + 1;
    w.arrivals <- payload :: w.arrivals;
    if w.n_arrived < Array.length w.sorted then Parked w
    else begin
      Hashtbl.remove t.waits key;
      Complete w
    end
  end

let parked t ~rank ~comm ~psig =
  match Hashtbl.find_opt t.slots (rank, comm, psig) with
  | None -> None
  | Some next -> (
      match Hashtbl.find_opt t.waits { comm; psig; slot = !next - 1 } with
      | Some w ->
          let i = position w rank in
          if i >= 0 && has_arrived w i then Some w else None
      | None -> None)

let pending t =
  Hashtbl.fold (fun _ w acc -> w :: acc) t.waits []
  |> List.sort (fun a b -> compare a.key b.key)
