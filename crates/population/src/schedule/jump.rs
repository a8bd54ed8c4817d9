//! Exact jump-ahead for the schedulers' xoshiro256++ generator.
//!
//! The generator's state update is linear over F₂: one `next_u64` maps
//! the 256-bit state `s` to `T·s` for a fixed 256 × 256 bit matrix `T`
//! (the `++` scrambler only shapes the output, not the state). So `k`
//! steps are `T^k·s`. By Cayley–Hamilton `P(T) = 0`, where `P` is the
//! degree-256 characteristic polynomial of `T`, hence `T^k = q(T)` with
//! `q = x^k mod P`, and `q(T)·s` is a sum of at most 256 successive
//! states. Computing `q` takes O(log k) polynomial products over a table
//! of `x^(2^i) mod P`, so a jump costs the same for `k = 10⁴` as for
//! `k = 10¹⁸` (Haramoto, Matsumoto, Nishimura, Panneton & L'Ecuyer,
//! "Efficient Jump Ahead for F₂-Linear Random Number Generators", 2008).
//!
//! `P` is committed below. A unit test re-derives it with
//! Berlekamp–Massey from one state bit's sequence, and checks that
//! `x^(2^128)` and `x^(2^192)` mod `P` are the reference xoshiro256
//! `JUMP` and `LONG_JUMP` polynomials.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::RngCore;

/// A polynomial over F₂ of degree below 256: bit `i` of word `w` is the
/// coefficient of `x^(64w + i)`.
type Poly = [u64; 4];

/// The characteristic polynomial of xoshiro256's state update, without
/// its leading term: `P = x^256 + P_LOW`.
const P_LOW: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// Below this many steps, stepping the generator is cheaper than a jump.
/// Measured on a 2-core x86-64 VM: a step takes about 1 ns, a jump about
/// 0.5 µs plus 0.6 µs per set bit of the step count (1–24 µs).
const JUMP_MIN: u64 = 1 << 14;

/// `p · x mod P`.
#[inline]
fn times_x(p: Poly) -> Poly {
    let carry = p[3] >> 63;
    let mut r = [
        p[0] << 1,
        p[1] << 1 | p[0] >> 63,
        p[2] << 1 | p[1] >> 63,
        p[3] << 1 | p[2] >> 63,
    ];
    for (w, low) in r.iter_mut().zip(P_LOW) {
        *w ^= low & carry.wrapping_neg();
    }
    r
}

fn xor(a: Poly, b: Poly) -> Poly {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// `a · b mod P`, four bits of `a` at a time.
fn mul_mod(a: &Poly, b: &Poly) -> Poly {
    // `m · b mod P` for every 4-bit polynomial `m`.
    let mut table = [[0u64; 4]; 16];
    table[1] = *b;
    for m in 2..16 {
        table[m] = if m & 1 == 1 {
            xor(table[m - 1], *b)
        } else {
            times_x(table[m / 2])
        };
    }
    let mut r = [0u64; 4];
    for nibble in (0..64).rev() {
        r = times_x(times_x(times_x(times_x(r))));
        let m = (a[nibble / 16] >> (4 * (nibble % 16))) & 0xF;
        r = xor(r, table[m as usize]);
    }
    r
}

/// `x^(2^i) mod P` for `i < 64`, built once by repeated squaring.
fn powers() -> &'static [Poly; 64] {
    static POWERS: OnceLock<[Poly; 64]> = OnceLock::new();
    POWERS.get_or_init(|| {
        let mut table = [[0u64; 4]; 64];
        table[0] = [2, 0, 0, 0];
        for i in 1..64 {
            table[i] = mul_mod(&table[i - 1], &table[i - 1]);
        }
        table
    })
}

/// `x^k mod P`.
fn x_pow_mod(k: u64) -> Poly {
    let mut q: Poly = [1, 0, 0, 0];
    for (i, p) in powers().iter().enumerate() {
        if k >> i & 1 == 1 {
            q = mul_mod(&q, p);
        }
    }
    q
}

/// `q(T)·s` for the generator's current state `s`: the sum of the states
/// `T^i·s` whose coefficient `q_i` is set.
fn apply(rng: &mut SmallRng, q: &Poly) {
    let mut cur = rng.clone();
    let mut acc = [0u64; 4];
    for word in q {
        for bit in 0..64 {
            if word >> bit & 1 == 1 {
                acc = xor(acc, cur.state());
            }
            cur.next_u64();
        }
    }
    *rng = SmallRng::from_state(acc);
}

/// Advance `rng` by exactly `k` outputs, as `k` calls of `next_u64`
/// would: by stepping below [`JUMP_MIN`], by a polynomial jump above.
pub(crate) fn advance(rng: &mut SmallRng, k: u64) {
    if k < JUMP_MIN {
        for _ in 0..k {
            rng.next_u64();
        }
    } else {
        apply(rng, &x_pow_mod(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The xoshiro256 reference `JUMP` polynomial, `x^(2^128) mod P`.
    const JUMP: Poly = [
        0x180e_c6d3_3cfd_0aba,
        0xd5a6_1266_f0c9_392c,
        0xa958_2618_e03f_c9aa,
        0x39ab_dc45_29b1_661c,
    ];

    /// The xoshiro256 reference `LONG_JUMP` polynomial, `x^(2^192) mod P`.
    const LONG_JUMP: Poly = [
        0x76e1_5d3e_fefd_cbbf,
        0xc500_4e44_1c52_2fb3,
        0x7771_0069_854e_e241,
        0x3910_9bb0_2acb_e635,
    ];

    /// The shortest linear recurrence of a bit sequence over F₂, as its
    /// connection polynomial `1 + c₁x + … + c_L x^L` (coefficients
    /// `c[0..=L]`).
    fn berlekamp_massey(s: &[u8]) -> Vec<u8> {
        let n = s.len();
        let mut c = vec![0u8; n + 1];
        let mut b = vec![0u8; n + 1];
        c[0] = 1;
        b[0] = 1;
        let (mut l, mut m) = (0usize, 1usize);
        for i in 0..n {
            let d = (1..=l).fold(s[i], |d, j| d ^ (c[j] & s[i - j]));
            if d == 0 {
                m += 1;
                continue;
            }
            let before = c.clone();
            for j in 0..=n - m {
                c[j + m] ^= b[j];
            }
            if 2 * l <= i {
                l = i + 1 - l;
                b = before;
                m = 1;
            } else {
                m += 1;
            }
        }
        c.truncate(l + 1);
        c
    }

    #[test]
    fn berlekamp_massey_on_one_state_bit_gives_the_committed_polynomial() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let bits: Vec<u8> = (0..1024)
            .map(|_| {
                let bit = (rng.state()[0] & 1) as u8;
                rng.next_u64();
                bit
            })
            .collect();
        let c = berlekamp_massey(&bits);
        assert_eq!(c.len() - 1, 256, "the recurrence must have degree 256");
        // P is the reciprocal of the connection polynomial:
        // s[i + 256] = Σ p_k s[i + k] with p_k = c[256 - k].
        let mut low = [0u64; 4];
        for k in 0..256 {
            low[k / 64] |= u64::from(c[256 - k]) << (k % 64);
        }
        assert_eq!(low, P_LOW);
    }

    #[test]
    fn reference_jump_polynomials_are_powers_of_x() {
        let mut t: Poly = [2, 0, 0, 0];
        for _ in 0..128 {
            t = mul_mod(&t, &t);
        }
        assert_eq!(t, JUMP);
        for _ in 128..192 {
            t = mul_mod(&t, &t);
        }
        assert_eq!(t, LONG_JUMP);
    }

    #[test]
    fn jumps_equal_steps() {
        let mut seeds = SmallRng::seed_from_u64(77);
        for k in [0, 1, 2, 255, 256, 257, JUMP_MIN - 1, JUMP_MIN, 100_003] {
            let mut stepped = SmallRng::seed_from_u64(seeds.next_u64());
            let mut jumped = stepped.clone();
            for _ in 0..k {
                stepped.next_u64();
            }
            apply(&mut jumped, &x_pow_mod(k));
            assert_eq!(jumped.state(), stepped.state(), "k = {k}");
        }
    }

    #[test]
    fn jumps_compose() {
        let (a, b) = (0xDEAD_BEEF_u64, 0x1234_5678_9ABC_u64);
        let mut once = SmallRng::seed_from_u64(3);
        let mut twice = once.clone();
        advance(&mut once, a + b);
        advance(&mut twice, a);
        advance(&mut twice, b);
        assert_eq!(once.state(), twice.state());
    }
}
