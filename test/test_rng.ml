(* Statistical sanity for the SplitMix64 generator: split-stream
   independence and chi-square uniformity of [Rng.int]/[Rng.float01].
   Fixed seeds make every test a deterministic regression pin (the
   chi-square critical value 27.88 is the p = 0.001 cutoff at 9 degrees
   of freedom for 10 buckets), not a flaky hypothesis test. *)

let test_split_independent_of_parent_use () =
  (* the split stream depends only on the parent's state at the split
     point — interleaving further parent draws must not perturb it *)
  let a = Rng.create 99L and b = Rng.create 99L in
  let sa = Rng.split a in
  let sb = Rng.split b in
  let xs =
    List.init 100 (fun _ ->
        ignore (Rng.next_int64 a);
        Rng.next_int64 sa)
  in
  let ys = List.init 100 (fun _ -> Rng.next_int64 sb) in
  Alcotest.(check (list int64)) "child stream unaffected by parent draws" xs ys

let test_parent_independent_of_child_use () =
  let a = Rng.create 7L and b = Rng.create 7L in
  let ca = Rng.split a and cb = Rng.split b in
  for _ = 1 to 1000 do
    ignore (Rng.next_int64 ca)
  done;
  ignore cb;
  for _ = 1 to 50 do
    Alcotest.(check int64) "parent stream unaffected by child draws"
      (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_siblings_differ () =
  (* consecutive splits of one parent give distinct streams *)
  let master = Rng.create 1L in
  let c1 = Rng.split master and c2 = Rng.split master in
  let d1 = List.init 10 (fun _ -> Rng.next_int64 c1) in
  let d2 = List.init 10 (fun _ -> Rng.next_int64 c2) in
  Alcotest.(check bool) "sibling streams differ" true (d1 <> d2)

let chi_square buckets expected =
  Array.fold_left
    (fun acc o ->
      let d = float_of_int o -. expected in
      acc +. (d *. d /. expected))
    0. buckets

let critical_9dof = 27.88 (* p = 0.001 *)

let check_uniform name seed draw =
  let r = Rng.create seed in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = draw r in
    buckets.(k) <- buckets.(k) + 1
  done;
  let x2 = chi_square buckets 1000. in
  if x2 >= critical_9dof then
    Alcotest.failf "%s: chi-square %.2f >= %.2f (seed %Ld)" name x2
      critical_9dof seed

let test_chi_square_int () =
  List.iter
    (fun seed -> check_uniform "int" seed (fun r -> Rng.int r 10))
    [ 1L; 2L; 42L; 1234L ]

let test_chi_square_float01 () =
  List.iter
    (fun seed ->
      check_uniform "float01" seed (fun r ->
          min 9 (int_of_float (Rng.float01 r *. 10.))))
    [ 3L; 7L; 99L; 31337L ]

let test_chi_square_across_split_streams () =
  (* one draw from each of 10_000 sibling streams: uniformity must also
     hold ACROSS streams, which is what the soak's per-case splits use *)
  let master = Rng.create 11L in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let child = Rng.split master in
    let k = Rng.int child 10 in
    buckets.(k) <- buckets.(k) + 1
  done;
  let x2 = chi_square buckets 1000. in
  if x2 >= critical_9dof then
    Alcotest.failf "split streams: chi-square %.2f >= %.2f" x2 critical_9dof

(* The first draws of two seeds, recorded from the boxed-state generator
   this one replaced: the streams must never move, since every committed
   report is a function of them. *)
let pinned_next_int64 =
  [
    ( 42L,
      [
        -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
        6349198060258255764L; 701532786141963250L; -2430762948046562554L;
        4028864712777624925L; -3677692746721775708L; 6270620877612482005L;
        -7037763681458882642L; 3779771651426294207L; 9094045341461139646L;
        -8976257307478440218L; -8854191821003330121L; -6176718654468026660L;
        3752715396868486130L; 1910607418205583989L; 9140336935745592861L;
        1723436047706647047L; -5737926661510088608L; -787210419263134744L;
        1347604182271487641L; -7382086223805147691L; -7013100964912248687L;
        1368025501988796752L; 5120214421805786385L; -4759641710321948619L;
        -3956836574347814625L; -1071251766013039353L; -5641428018500444605L;
        -3875508414963263115L; -2941951638906262434L; -6509955123708103523L;
        -4018507182230503458L; -6686406736592190891L; 7010184598893129283L;
        1162605938390881553L; 4907808435827497793L; -4404988034729287872L;
        1696491107425968004L; -8665281757210203870L; 2934045218811111737L;
        5037149692101864844L; -4154518104595714287L; -6118883836101853133L;
        5928622861933973450L; 1558413724744508586L; 2628696075038781655L;
        -9133514916175455378L; -565000934507115281L; 6791476662184033089L;
        3477164335915683848L; 2846749615188618532L; 5905759445212106587L;
        481048453734857269L; -3274254436549209013L; -5834400940002477567L;
        -8191000050808526662L; -2303267214051395664L; 595097157334617274L;
        4780430056316407830L; -649275861622199674L; -7203234823163440314L;
        828042018597943978L;
      ] );
    ( 0x5eedL,
      [
        716632666546416052L; 6139096880363046005L; 6727192872932819891L;
        8129731167615341197L; 860951788085400693L; 6825197725885693130L;
        2984990394097172368L; 1335781936353846705L; -2692449195292647821L;
        4526273042308876071L; 6387777158891554393L; 7285346741127956506L;
        2499333874296720844L; 3254886901903703993L; -5976694901920556281L;
        -7119910491897913582L; -720848854106962723L; 1329626370781146816L;
        5179662811399934475L; -4906035462784136484L; -4377954325813926716L;
        8443358160619262228L; -1928166393215835419L; -7886164541137609821L;
        1206816759776609054L; -7547960608044917704L; -28385820001410169L;
        2738527909932727984L; 6292646810864994942L; 2766307388729113274L;
        -6288283821665803428L; -2200204858217426516L; -8776228079322569646L;
        1618029831801875933L; 3428774822618678942L; 7309009917662356322L;
        5991307192833552521L; 4297129638460891580L; 1079243068634711769L;
        5532891271988060364L; 7092077543065934872L; 91615183638082505L;
        4045710475142999409L; 2822763849995375661L; 5611036778473048526L;
        1470320999187934089L; 66300045266631053L; -989600785413696700L;
        2848036153691133118L; 6517215799004868334L; 3195544318031337114L;
        8743070108941969782L; 5337469141366407165L; -4853604723636289844L;
        -5330529397627865304L; 945038826479857965L; 8712015149230526087L;
        -1502295289753358747L; -1190838653612602614L; -8569896271238039477L;
        1732539916618161733L; -4748087222337183949L; 8051996030097294024L;
        2287682958514154440L;
      ] );
  ]

let pinned_int_1000003 =
  [
    ( 42L,
      [
        447975; 791068; 442972; 304401; 479651; 938870; 936569; 679004;
        571148; 43184; 339443; 740358; 11707; 949024; 924285; 17465;
        131197; 262103; 503702; 401357; 97215; 767309; 608960; 719756;
        150745; 150690; 924099; 411921; 992036; 47220; 613249; 381872;
        507218; 556867; 798025; 606020; 882453; 590115; 630559; 978528;
        107786; 465409; 530689; 139909; 484018; 686275; 340009; 553684;
        610613; 488484; 792413; 492623; 348410; 730658; 456373; 995782;
        795921; 314418; 216959; 125282; 315656; 723105; 887738; 835137;
      ] );
    ( 0x5eedL,
      [
        716524; 914158; 686413; 751430; 446246; 485518; 213728; 14911;
        514194; 621371; 391886; 325262; 397974; 73044; 427519; 208449;
        115666; 500270; 529276; 362093; 249986; 192592; 335368; 97252;
        297761; 81419; 786264; 411217; 299000; 960947; 104468; 174260;
        508299; 735690; 267492; 596058; 473907; 662564; 804758; 10068;
        283546; 339032; 996319; 307619; 303072; 542345; 772990; 775964;
        76073; 31521; 785710; 582589; 755038; 387361; 925914; 970965;
        871576; 585147; 997851; 249022; 501174; 275273; 417871; 466997;
      ] );
  ]

let pinned_float01_bits =
  [
    ( 42L,
      [ 4604854642168692077L; 4594929399376720760L;
        4598690451703514086L; 4599872008648626872L ] );
    ( 0x5eedL,
      [ 4585759513743188304L; 4599666831715135456L;
        4600241144207879376L; 4601610810511280276L ] );
  ]

let test_pinned_streams () =
  List.iter
    (fun (seed, want) ->
      let r = Rng.create seed in
      Alcotest.(check (list int64)) "next_int64" want
        (List.map (fun _ -> Rng.next_int64 r) want))
    pinned_next_int64;
  List.iter
    (fun (seed, want) ->
      let r = Rng.create seed in
      Alcotest.(check (list int)) "int 1000003" want
        (List.map (fun _ -> Rng.int r 1000003) want))
    pinned_int_1000003;
  List.iter
    (fun (seed, want) ->
      let r = Rng.create seed in
      Alcotest.(check (list int64)) "float01 bits" want
        (List.map (fun _ -> Int64.bits_of_float (Rng.float01 r)) want))
    pinned_float01_bits

let test_int_allocates_nothing () =
  let r = Rng.create 1L in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    acc := !acc + Rng.int r 100
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "draws made" true (!acc > 0);
  Alcotest.(check (float 0.)) "minor words for 100k Rng.int draws" 0. words

let () =
  Alcotest.run "rng"
    [
      ( "split independence",
        [
          Alcotest.test_case "child vs parent draws" `Quick
            test_split_independent_of_parent_use;
          Alcotest.test_case "parent vs child draws" `Quick
            test_parent_independent_of_child_use;
          Alcotest.test_case "siblings differ" `Quick test_siblings_differ;
        ] );
      ( "uniformity",
        [
          Alcotest.test_case "chi-square int" `Quick test_chi_square_int;
          Alcotest.test_case "chi-square float01" `Quick
            test_chi_square_float01;
          Alcotest.test_case "chi-square across splits" `Quick
            test_chi_square_across_split_streams;
        ] );
      ( "streams",
        [
          Alcotest.test_case "pinned draws" `Quick test_pinned_streams;
          Alcotest.test_case "int allocates nothing" `Quick
            test_int_allocates_nothing;
        ] );
    ]
