//! `calibrate`: a fixed amount of work that calls no `fua` code, timed
//! to read how fast the host runs at the moment.
//!
//! On a shared host the same command can take twice as long in one
//! minute as in the next, because other tenants compete for the cores
//! and caches. The benchmark times this work between the commands it
//! measures and scales their times by the ratio of a fixed nominal time
//! to this work's fastest sample (see `perfbench/README.md`). A change to
//! the repository cannot change how long the work takes; only the host
//! can. So changing this file breaks comparison with earlier runs.
//!
//! The work mixes four kinds of integer code: a register-machine
//! interpreter over a 2 MiB table (branchy, serially dependent, like the
//! simulator's hot loop), eight independent multiply chains (wide
//! issue), hash-map inserts and lookups, and sorting.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const K: u64 = 0x9e37_79b9_7f4a_7c15;
const TABLE_WORDS: usize = 1 << 18;
const PROGRAM_LEN: usize = 4096;

/// The checksum of one pass; the same on every run and host.
pub const CHECKSUM: u64 = 0x511a_2529_fe71_d24a;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn interpret(steps: u64) -> u64 {
    let mut seed = K;
    let mut table: Vec<u64> = (0..TABLE_WORDS).map(|_| xorshift(&mut seed)).collect();
    let program: Vec<(u8, usize, usize)> = (0..PROGRAM_LEN)
        .map(|_| {
            let w = xorshift(&mut seed);
            ((w % 6) as u8, (w >> 8) as usize & 7, (w >> 16) as usize & 7)
        })
        .collect();
    let mut regs = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0usize;
    for _ in 0..steps {
        let (op, a, b) = program[pc];
        pc += 1;
        match op {
            0 => regs[a] = regs[a].wrapping_add(regs[b]).wrapping_add(K),
            1 => regs[a] = (regs[a] ^ regs[b].wrapping_add(K)).rotate_left(7),
            2 => regs[a] = table[(regs[b] as usize) & (TABLE_WORDS - 1)],
            3 => table[(regs[a] as usize) & (TABLE_WORDS - 1)] = regs[b],
            4 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
            _ => {
                if regs[a] & 1 == 0 {
                    pc += (regs[b] & 15) as usize;
                }
            }
        }
        if pc >= PROGRAM_LEN {
            pc -= PROGRAM_LEN;
        }
    }
    regs.iter().fold(table[0], |acc, r| acc ^ r)
}

fn multiply_chains(steps: u64) -> u64 {
    let mut s = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..steps {
        for (j, x) in s.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(i ^ j as u64);
        }
    }
    s.iter().fold(0, |a, x| a ^ x)
}

fn hash_map(rounds: u64) -> u64 {
    let mut seed = K;
    let mut acc = 0u64;
    let mut m = HashMap::new();
    for _ in 0..rounds {
        m.clear();
        for i in 0..100_000u64 {
            m.insert(xorshift(&mut seed) % 200_000, i);
        }
        for _ in 0..100_000 {
            acc = acc.wrapping_add(*m.get(&(xorshift(&mut seed) % 200_000)).unwrap_or(&1));
        }
    }
    acc
}

fn sort(rounds: u64) -> u64 {
    let mut seed = K;
    let mut acc = 0u64;
    for _ in 0..rounds {
        let mut v: Vec<u64> = (0..400_000).map(|_| xorshift(&mut seed)).collect();
        v.sort();
        acc ^= v[1000];
    }
    acc
}

/// Times one pass of the fixed work; returns its seconds and checksum.
pub fn run() -> (f64, u64) {
    let start = Instant::now();
    let sum = black_box(interpret(black_box(6_000_000)))
        ^ black_box(multiply_chains(black_box(10_000_000)))
        ^ black_box(hash_map(black_box(3)))
        ^ black_box(sort(black_box(2)));
    (start.elapsed().as_secs_f64(), sum)
}
