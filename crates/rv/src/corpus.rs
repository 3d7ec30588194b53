//! The RV64 workload corpus: six real programs written in RV assembly.
//!
//! Where the synthetic suite *engineers* branch populations to match the
//! paper's Table 5, these are ordinary programs whose control flow falls
//! out of the algorithm — compiler-shaped hammocks, loop exits, recursion
//! and indirect dispatch:
//!
//! | program | control-flow character |
//! |---|---|
//! | `crc32` | counted bit loop with a ~50% data-dependent XOR hammock |
//! | `qsort` | recursive quicksort: unpredictable partition compare, call/ret depth |
//! | `dijkstra` | argmin scan + relaxation, two nested data-dependent hammocks |
//! | `matmul` | dense 6x6 multiply, fully counted and predictable |
//! | `strhash` | FNV-1a stream hash with a 1-in-8 bucket-update hammock |
//! | `fsm` | bytecode interpreter: indirect dispatch through a jump table |
//!
//! Every builder takes the suite iteration scale `n`
//! (`tp_workloads::Size::iters` upstream) and produces a validated
//! [`Program`] through the full assemble → encode → **decode** path, so
//! simply constructing the suite exercises the frontend end to end. Input
//! data is generated from fixed per-program seeds; builds are bit-for-bit
//! deterministic.
//!
//! Each program writes a result digest to its `OUT` region and the crate
//! tests check it against an independent Rust reference implementation —
//! the corpus is self-verifying, not just self-consistent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tp_isa::{Addr, Program, Word};

use crate::asm::{RvAsm, RvModule};
use crate::module_to_program;

/// Byte address of a program's primary input region. Input streams scale
/// with the suite size and grow *upward* from here, so every fixed-size
/// auxiliary region (output, literal pools, tables) lives below it.
pub const DATA: Addr = tp_isa::DATA_BASE;
/// Byte address of the result/output region shared by all corpus programs.
pub const OUT: Addr = 0x8000;
/// Stack base for corpus programs that call (grows downward; far above
/// the largest long-suite input stream).
pub const RV_STACK: Addr = 0x80_0000;

/// One corpus entry.
#[derive(Clone, Debug)]
pub struct RvProgram {
    /// Program name (the workload registry key).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The decoded, validated program.
    pub program: Program,
}

/// One corpus program before assembly: name, source text, data image.
struct Spec {
    name: &'static str,
    src: String,
    data: Vec<(Addr, Word)>,
}

fn assemble_spec(spec: &Spec) -> RvModule {
    let mut a = RvAsm::new(spec.name);
    a.source(&spec.src).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    for &(addr, v) in &spec.data {
        a.data_word(addr, v);
    }
    a.assemble().unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

fn build_spec(spec: &Spec) -> Program {
    module_to_program(&assemble_spec(spec)).unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

fn specs(n: u32) -> Vec<Spec> {
    vec![
        crc32_spec(n),
        qsort_spec(n),
        dijkstra_spec(n),
        matmul_spec(n),
        strhash_spec(n),
        fsm_spec(n),
    ]
}

/// The whole corpus as assembled modules — raw 32-bit encodings plus data
/// images — in canonical order. The round-trip tests decode and re-encode
/// these words.
pub fn all_modules(n: u32) -> Vec<RvModule> {
    specs(n).iter().map(assemble_spec).collect()
}

/// The random byte stream hashed by [`crc32`].
pub fn crc32_data(n: u32) -> Vec<Word> {
    let mut rng = StdRng::seed_from_u64(0xc7c3_2001);
    (0..n).map(|_| rng.gen_range(0..256)).collect()
}

/// CRC-32 (polynomial `0x04C11DB7`, MSB-first) over `n` random bytes.
fn crc32_spec(n: u32) -> Spec {
    let src = format!(
        "
        main:
            li   s0, {DATA:#x}
            li   s1, {n}
            li   s2, 0x04C11DB7
            li   s6, -1
            srli s6, s6, 32          # 32-bit mask
            mv   s3, s6              # crc = 0xFFFFFFFF
            li   t0, 0               # byte index
        byte_loop:
            slli t1, t0, 3
            add  t1, t1, s0
            ld   t2, (t1)
            slli t2, t2, 24
            xor  s3, s3, t2
            li   t3, 8
        bit_loop:
            srli t4, s3, 31
            slli s3, s3, 1
            and  s3, s3, s6
            beqz t4, no_xor          # ~50% data-dependent hammock
            xor  s3, s3, s2
        no_xor:
            addi t3, t3, -1
            bnez t3, bit_loop
            addi t0, t0, 1
            blt  t0, s1, byte_loop
            li   t5, {OUT:#x}
            sd   s3, (t5)
            ecall
        "
    );
    let data: Vec<(Addr, Word)> =
        crc32_data(n).into_iter().enumerate().map(|(i, b)| (DATA + 8 * i as Addr, b)).collect();
    Spec { name: "crc32", src, data }
}

#[doc = "See the corpus table in the module docs."]
pub fn crc32(n: u32) -> Program {
    build_spec(&crc32_spec(n))
}

/// Reference CRC-32 for the [`crc32`] input (what `OUT` must hold).
pub fn crc32_reference(n: u32) -> u64 {
    let mut crc: u64 = 0xffff_ffff;
    for b in crc32_data(n) {
        crc ^= (b as u64) << 24;
        for _ in 0..8 {
            let msb = crc >> 31 & 1;
            crc = (crc << 1) & 0xffff_ffff;
            if msb == 1 {
                crc ^= 0x04C1_1DB7;
            }
        }
    }
    crc
}

/// The random word stream sorted by [`qsort`].
pub fn qsort_data(n: u32) -> Vec<Word> {
    let n = n.max(8);
    let mut rng = StdRng::seed_from_u64(0x9507_0042);
    (0..n).map(|_| rng.gen_range(0..1_000_000)).collect()
}

/// Recursive quicksort (Lomuto partition) of `max(n, 8)` random words,
/// followed by an in-place sortedness check that counts inversions into
/// `OUT` (zero for a correct sort).
fn qsort_spec(n: u32) -> Spec {
    let n = n.max(8);
    let last = DATA + 8 * (n as Addr - 1);
    let src = format!(
        "
        main:
            li   sp, {RV_STACK:#x}
            li   a0, {DATA:#x}
            li   a1, {last:#x}
            call qsort
            # verification pass: count adjacent inversions
            li   t0, {DATA:#x}
            li   t1, {last:#x}
            li   t2, 0
        vloop:
            ld   t3, (t0)
            ld   t4, 8(t0)
            ble  t3, t4, vok
            addi t2, t2, 1
        vok:
            addi t0, t0, 8
            blt  t0, t1, vloop
            li   t5, {OUT:#x}
            sd   t2, (t5)
            ecall

        qsort:                        # a0 = &a[lo], a1 = &a[hi]
            bltu a0, a1, qs_go
            ret
        qs_go:
            addi sp, sp, -32
            sd   ra, (sp)
            sd   s0, 8(sp)
            sd   s1, 16(sp)
            sd   s2, 24(sp)
            mv   s0, a0
            mv   s1, a1
            ld   t0, (s1)             # pivot = a[hi]
            mv   s2, a0               # store ptr
            mv   t1, a0               # scan ptr
        part_loop:
            ld   t2, (t1)
            bge  t2, t0, part_skip    # unpredictable partition compare
            ld   t3, (s2)
            sd   t2, (s2)
            sd   t3, (t1)
            addi s2, s2, 8
        part_skip:
            addi t1, t1, 8
            bltu t1, s1, part_loop
            ld   t2, (s2)
            ld   t3, (s1)
            sd   t3, (s2)
            sd   t2, (s1)
            mv   a0, s0               # left half
            addi a1, s2, -8
            call qsort
            addi a0, s2, 8            # right half
            mv   a1, s1
            call qsort
            ld   ra, (sp)
            ld   s0, 8(sp)
            ld   s1, 16(sp)
            ld   s2, 24(sp)
            addi sp, sp, 32
            ret
        ",
    );
    let data: Vec<(Addr, Word)> =
        qsort_data(n).into_iter().enumerate().map(|(i, v)| (DATA + 8 * i as Addr, v)).collect();
    Spec { name: "qsort", src, data }
}

#[doc = "See the corpus table in the module docs."]
pub fn qsort(n: u32) -> Program {
    build_spec(&qsort_spec(n))
}

/// Number of vertices in the [`dijkstra`] graph.
pub const DIJKSTRA_V: u32 = 12;

/// The dense random weight matrix of [`dijkstra`] (row-major, `V*V`).
pub fn dijkstra_data(_n: u32) -> Vec<Word> {
    let v = DIJKSTRA_V as usize;
    let mut rng = StdRng::seed_from_u64(0xd1ca_57a0);
    (0..v * v).map(|_| rng.gen_range(1..100)).collect()
}

/// Dijkstra on a dense 12-vertex graph, one full single-source run per
/// rep (`n/30 + 1` reps, rotating the source), summing the far-corner
/// distances into `OUT`.
fn dijkstra_spec(n: u32) -> Spec {
    let reps = n / 30 + 1;
    let dist = 0xb000;
    let visited = 0xb800;
    let src = format!(
        "
        main:
            li   s0, {DATA:#x}       # weights
            li   s1, {dist:#x}
            li   s2, {visited:#x}
            li   s3, {reps}
            li   s4, 0               # checksum
            li   s5, 0               # source
            li   s6, {v}
        rep:
            li   t0, 0
            li   t1, 0x100000        # INF
        init:
            slli t2, t0, 3
            add  t3, t2, s1
            sd   t1, (t3)
            add  t3, t2, s2
            sd   zero, (t3)
            addi t0, t0, 1
            blt  t0, s6, init
            slli t2, s5, 3
            add  t2, t2, s1
            sd   zero, (t2)          # dist[src] = 0
            li   s7, 0
        outer:
            li   t0, 0               # argmin over unvisited
            li   t1, 0x200000
            li   t2, -1
        sel:
            slli t3, t0, 3
            add  t4, t3, s2
            ld   t5, (t4)
            bnez t5, sel_skip        # already visited
            add  t4, t3, s1
            ld   t5, (t4)
            bge  t5, t1, sel_skip    # not an improvement
            mv   t1, t5
            mv   t2, t0
        sel_skip:
            addi t0, t0, 1
            blt  t0, s6, sel
            bltz t2, done_rep
            slli t3, t2, 3
            add  t4, t3, s2
            li   t5, 1
            sd   t5, (t4)            # visit u
            add  t4, t3, s1
            ld   s8, (t4)            # du
            li   t4, {row}
            mul  t4, t2, t4
            add  s9, t4, s0          # row of W
            li   t0, 0
        relax:
            slli t3, t0, 3
            add  t4, t3, s2
            ld   t5, (t4)
            bnez t5, relax_skip
            add  t6, t3, s9
            ld   t6, (t6)
            add  t6, t6, s8          # nd = du + w
            add  t4, t3, s1
            ld   t5, (t4)
            bge  t6, t5, relax_skip  # relaxation hammock
            sd   t6, (t4)
        relax_skip:
            addi t0, t0, 1
            blt  t0, s6, relax
            addi s7, s7, 1
            blt  s7, s6, outer
        done_rep:
            addi t0, s6, -1
            slli t0, t0, 3
            add  t0, t0, s1
            ld   t0, (t0)
            add  s4, s4, t0          # checksum += dist[V-1]
            addi s5, s5, 1
            blt  s5, s6, src_ok
            li   s5, 0
        src_ok:
            addi s3, s3, -1
            bnez s3, rep
            li   t0, {OUT:#x}
            sd   s4, (t0)
            ecall
        ",
        v = DIJKSTRA_V,
        row = 8 * DIJKSTRA_V,
    );
    let data: Vec<(Addr, Word)> =
        dijkstra_data(n).into_iter().enumerate().map(|(i, w)| (DATA + 8 * i as Addr, w)).collect();
    Spec { name: "dijkstra", src, data }
}

#[doc = "See the corpus table in the module docs."]
pub fn dijkstra(n: u32) -> Program {
    build_spec(&dijkstra_spec(n))
}

/// Matrix order of [`matmul`].
pub const MATMUL_K: u32 = 6;

/// The two random input matrices of [`matmul`], concatenated (A then B).
pub fn matmul_data(_n: u32) -> Vec<Word> {
    let k = (MATMUL_K * MATMUL_K) as usize;
    let mut rng = StdRng::seed_from_u64(0x3a73_0001);
    (0..2 * k).map(|_| rng.gen_range(0..16)).collect()
}

/// Dense 6x6 integer matrix multiply, repeated `n/60 + 1` times with a
/// feedback write so no rep is dead code; `OUT` holds the final `C[35]`.
///
/// The inner product is fully unrolled — exactly what a compiler does to
/// a constant-trip-count inner loop at `-O2` — so the hot code is long
/// straight-line blocks of load/`mul`/`add` with one backward branch per
/// output element, heavy on ILP and nearly branch-free.
fn matmul_spec(n: u32) -> Spec {
    let reps = n / 60 + 1;
    let k = MATMUL_K;
    let row = 8 * k;
    // The unrolled dot product: A's row is contiguous (offsets 0,8,..),
    // B's column strides by a full row.
    let mut dot = String::new();
    for l in 0..k {
        dot.push_str(&format!(
            "            ld   t6, {a_off}(t4)\n            ld   s4, {b_off}(t5)\n            \
             mul  t6, t6, s4\n            add  t3, t3, t6\n",
            a_off = 8 * l,
            b_off = row * l,
        ));
    }
    let b_base = DATA + 8 * (k * k) as Addr;
    let c_base = 0xc000;
    let src = format!(
        "
        main:
            li   s0, {DATA:#x}       # A
            li   s1, {b_base:#x}     # B
            li   s2, {c_base:#x}     # C
            li   s3, {reps}
            li   s7, {k}
        rep_loop:
            li   t0, 0               # i
            mv   t4, s0              # &A[i][0]
            mv   s6, s2              # &C[i][0]
        i_loop:
            li   t1, 0               # j
            mv   t5, s1              # &B[0][j]
            mv   s5, s6              # &C[i][j]
        j_loop:
            li   t3, 0               # acc
{dot}            sd   t3, (s5)            # C[i][j] = acc
            addi t5, t5, 8
            addi s5, s5, 8
            addi t1, t1, 1
            blt  t1, s7, j_loop
            addi t4, t4, {row}
            addi s6, s6, {row}
            addi t0, t0, 1
            blt  t0, s7, i_loop
            ld   t0, {last_c}(s2)    # feedback keeps reps live
            srai t0, t0, 3
            ld   t1, (s0)
            xor  t1, t1, t0
            sd   t1, (s0)
            addi s3, s3, -1
            bnez s3, rep_loop
            ld   t0, {last_c}(s2)
            li   t1, {OUT:#x}
            sd   t0, (t1)
            ecall
        ",
        last_c = 8 * (k * k - 1),
    );
    let data: Vec<(Addr, Word)> =
        matmul_data(n).into_iter().enumerate().map(|(i, v)| (DATA + 8 * i as Addr, v)).collect();
    Spec { name: "matmul", src, data }
}

#[doc = "See the corpus table in the module docs."]
pub fn matmul(n: u32) -> Program {
    build_spec(&matmul_spec(n))
}

/// The random word stream hashed by [`strhash`].
pub fn strhash_data(n: u32) -> Vec<Word> {
    let mut rng = StdRng::seed_from_u64(0x57a5_4a11);
    (0..4 * n).map(|_| rng.gen::<u32>() as Word).collect()
}

/// FNV-1a over `4n` random words with a 1-in-8 data-dependent bucket
/// update; `OUT` holds the final hash.
fn strhash_spec(n: u32) -> Spec {
    let words = 4 * n;
    let pool = 0x9000;
    let buckets = 0x9800;
    let src = format!(
        "
            .org {pool:#x}
            .word 0xcbf29ce484222325  # FNV-1a offset basis
            .word 0x100000001b3       # FNV-1a prime
        main:
            li   s0, {DATA:#x}
            li   s1, {words}
            li   s4, {pool:#x}
            ld   s2, (s4)             # h
            ld   s3, 8(s4)            # prime
            li   s5, {buckets:#x}
            li   t0, 0
        loop:
            slli t1, t0, 3
            add  t1, t1, s0
            ld   t2, (t1)
            xor  s2, s2, t2
            mul  s2, s2, s3
            andi t3, s2, 7
            bnez t3, skip             # 1-in-8 hammock
            srli t4, s2, 3
            andi t4, t4, 63
            slli t4, t4, 3
            add  t4, t4, s5
            ld   t5, (t4)
            addi t5, t5, 1
            sd   t5, (t4)
        skip:
            addi t0, t0, 1
            blt  t0, s1, loop
            li   t6, {OUT:#x}
            sd   s2, (t6)
            ecall
        "
    );
    let data: Vec<(Addr, Word)> =
        strhash_data(n).into_iter().enumerate().map(|(i, v)| (DATA + 8 * i as Addr, v)).collect();
    Spec { name: "strhash", src, data }
}

#[doc = "See the corpus table in the module docs."]
pub fn strhash(n: u32) -> Program {
    build_spec(&strhash_spec(n))
}

/// Reference FNV-1a hash for the [`strhash`] input.
pub fn strhash_reference(n: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in strhash_data(n) {
        h ^= w as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The packed opcode stream interpreted by [`fsm`]: low 3 bits opcode
/// (0..6), the rest a signed operand.
pub fn fsm_data(n: u32) -> Vec<Word> {
    let mut rng = StdRng::seed_from_u64(0xf5a_0a77);
    (0..4 * n.max(16))
        .map(|_| {
            let op = rng.gen_range(0..6i64);
            let operand = rng.gen_range(-5_000..5_000i64);
            (operand << 3) | op
        })
        .collect()
}

/// A six-opcode bytecode interpreter dispatching through a `.wordpc` jump
/// table with `jr` — every step is an indirect jump whose target depends
/// on data. `OUT` holds the final accumulator and state counter.
fn fsm_spec(n: u32) -> Spec {
    let steps = 4 * n.max(16);
    let table = 0xa000;
    let src = format!(
        "
            .org {table:#x}
            .wordpc op_add
            .wordpc op_xor
            .wordpc op_shift
            .wordpc op_cmp
            .wordpc op_load
            .wordpc op_mix
        main:
            li   s0, {DATA:#x}        # instruction stream
            li   s1, {steps}
            li   s2, {table:#x}
            li   s3, 0                # acc
            li   s4, 0                # state
            li   t0, 0                # step index
        loop:
            slli t1, t0, 3
            add  t1, t1, s0
            ld   t2, (t1)
            andi t3, t2, 7
            srai t4, t2, 3            # operand
            slli t3, t3, 3
            add  t3, t3, s2
            ld   t3, (t3)
            jr   t3                   # data-dependent indirect dispatch
        op_add:
            add  s3, s3, t4
            j    next
        op_xor:
            xor  s3, s3, t4
            j    next
        op_shift:
            andi t5, t4, 31
            srl  t5, s3, t5
            xor  s3, s3, t5
            j    next
        op_cmp:
            blt  s3, t4, cmp_lt       # data-dependent hammock in a handler
            addi s4, s4, -1
            j    next
        cmp_lt:
            addi s4, s4, 1
            j    next
        op_load:
            andi t5, t4, 63
            slli t5, t5, 3
            add  t5, t5, s0
            ld   t5, (t5)
            add  s3, s3, t5
            j    next
        op_mix:
            mul  s3, s3, t4
            xor  s3, s3, s4
            j    next
        next:
            addi t0, t0, 1
            blt  t0, s1, loop
            li   t1, {OUT:#x}
            sd   s3, (t1)
            sd   s4, 8(t1)
            ecall
        "
    );
    let data: Vec<(Addr, Word)> =
        fsm_data(n).into_iter().enumerate().map(|(i, v)| (DATA + 8 * i as Addr, v)).collect();
    Spec { name: "fsm", src, data }
}

#[doc = "See the corpus table in the module docs."]
pub fn fsm(n: u32) -> Program {
    build_spec(&fsm_spec(n))
}

/// Builds the whole corpus at iteration scale `n`, in canonical order.
pub fn all(n: u32) -> Vec<RvProgram> {
    vec![
        RvProgram {
            name: "crc32",
            description: "bitwise CRC-32: counted bit loop + ~50% XOR hammock",
            program: crc32(n),
        },
        RvProgram {
            name: "qsort",
            description: "recursive quicksort: unpredictable partition, deep call/ret",
            program: qsort(n),
        },
        RvProgram {
            name: "dijkstra",
            description: "dense-graph shortest paths: argmin scan + relaxation hammocks",
            program: dijkstra(n),
        },
        RvProgram {
            name: "matmul",
            description: "dense 6x6 integer matmul: fully counted, highly predictable",
            program: matmul(n),
        },
        RvProgram {
            name: "strhash",
            description: "FNV-1a stream hash with 1-in-8 bucket-update hammock",
            program: strhash(n),
        },
        RvProgram {
            name: "fsm",
            description: "bytecode interpreter: indirect dispatch through a jump table",
            program: fsm(n),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::map_reg;
    use tp_isa::func::Machine;

    const N: u32 = 60; // the tiny-suite scale

    fn run(p: &Program) -> Machine<'_> {
        let mut m = Machine::new(p);
        let s = m.run(50_000_000).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        assert!(s.halted, "{} did not halt", p.name());
        m
    }

    #[test]
    fn crc32_matches_the_reference() {
        let p = crc32(N);
        let m = run(&p);
        assert_eq!(m.mem_word(OUT) as u64, crc32_reference(N));
    }

    #[test]
    fn qsort_sorts_and_counts_zero_inversions() {
        let p = qsort(N);
        let m = run(&p);
        assert_eq!(m.mem_word(OUT), 0, "inversions remain");
        let mut expected = qsort_data(N);
        expected.sort();
        for (i, v) in expected.iter().enumerate() {
            assert_eq!(m.mem_word(DATA + 8 * i as Addr), *v, "element {i}");
        }
    }

    #[test]
    fn dijkstra_matches_a_reference_solver() {
        let p = dijkstra(N);
        let m = run(&p);
        let v = DIJKSTRA_V as usize;
        let w = dijkstra_data(N);
        let reps = N / 30 + 1;
        let mut checksum = 0i64;
        let mut source = 0usize;
        for _ in 0..reps {
            let mut dist = vec![0x100000i64; v];
            let mut visited = vec![false; v];
            dist[source] = 0;
            for _ in 0..v {
                let u =
                    (0..v).filter(|&i| !visited[i] && dist[i] < 0x200000).min_by_key(|&i| dist[i]);
                let Some(u) = u else { break };
                visited[u] = true;
                for x in 0..v {
                    let nd = dist[u] + w[u * v + x];
                    if !visited[x] && nd < dist[x] {
                        dist[x] = nd;
                    }
                }
            }
            checksum += dist[v - 1];
            source = (source + 1) % v;
        }
        assert_eq!(m.mem_word(OUT), checksum);
    }

    #[test]
    fn matmul_matches_a_reference_multiply() {
        let p = matmul(N);
        let m = run(&p);
        let k = MATMUL_K as usize;
        let data = matmul_data(N);
        let (mut a, b) = (data[..k * k].to_vec(), &data[k * k..]);
        let reps = N / 60 + 1;
        let mut c = vec![0i64; k * k];
        for _ in 0..reps {
            for i in 0..k {
                for j in 0..k {
                    c[i * k + j] = (0..k)
                        .map(|l| a[i * k + l].wrapping_mul(b[l * k + j]))
                        .fold(0i64, i64::wrapping_add);
                }
            }
            a[0] ^= c[k * k - 1] >> 3;
        }
        assert_eq!(m.mem_word(OUT), c[k * k - 1]);
    }

    #[test]
    fn strhash_matches_the_reference() {
        let p = strhash(N);
        let m = run(&p);
        assert_eq!(m.mem_word(OUT) as u64, strhash_reference(N));
    }

    #[test]
    fn fsm_matches_a_reference_interpreter() {
        let p = fsm(N);
        let m = run(&p);
        let stream = fsm_data(N);
        let (mut acc, mut state) = (0i64, 0i64);
        for &w in &stream {
            let (op, operand) = (w & 7, w >> 3);
            match op {
                0 => acc = acc.wrapping_add(operand),
                1 => acc ^= operand,
                2 => acc ^= ((acc as u64) >> (operand & 31)) as i64,
                3 => {
                    if acc < operand {
                        state += 1;
                    } else {
                        state -= 1;
                    }
                }
                4 => acc = acc.wrapping_add(stream[(operand & 63) as usize]),
                _ => {
                    acc = acc.wrapping_mul(operand);
                    acc ^= state;
                }
            }
        }
        assert_eq!(m.mem_word(OUT), acc);
        assert_eq!(m.mem_word(OUT + 8), state);
    }

    #[test]
    fn corpus_is_deterministic_and_scales() {
        let a = all(60);
        let b = all(60);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.program, y.program, "{}", x.name);
        }
        for (small, big) in all(60).iter().zip(all(600).iter()) {
            let mut ms = Machine::new(&small.program);
            let mut mb = Machine::new(&big.program);
            let rs = ms.run(100_000_000).unwrap();
            let rb = mb.run(100_000_000).unwrap();
            assert!(rs.halted && rb.halted);
            assert!(
                rb.retired > 3 * rs.retired,
                "{}: {} !>> {}",
                small.name,
                rb.retired,
                rs.retired
            );
        }
    }

    #[test]
    fn corpus_register_use_respects_the_zero_register() {
        // No corpus program may write a meaningful value through x0.
        for p in all(60) {
            let m = run(&p.program);
            assert_eq!(m.reg(map_reg(0)), 0, "{}", p.name);
        }
    }
}
