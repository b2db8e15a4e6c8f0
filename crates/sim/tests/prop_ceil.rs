//! Property tests: `ceil_u64` is `f64::ceil` followed by the `as u64`
//! cast, for every `f64`.

use gridsched_sim::check::check;
use gridsched_sim::time::ceil_u64;

fn reference(x: f64) -> u64 {
    x.ceil() as u64
}

/// The roundings the scheduler used before `ceil_u64`: an exact quotient
/// nudged down by `1e-9`, rounded up and clamped at zero.
fn reference_nudged(r: f64) -> u64 {
    (r - 1e-9).ceil().max(0.0) as u64
}

fn assert_matches(x: f64) {
    assert_eq!(
        ceil_u64(x),
        reference(x),
        "ceil_u64({x:e}) [bits {:#x}]",
        x.to_bits()
    );
    assert_eq!(
        ceil_u64(x - 1e-9),
        reference_nudged(x),
        "ceil_u64({x:e} - 1e-9) [bits {:#x}]",
        x.to_bits()
    );
}

/// Every special and boundary value: NaN, signed zeros and infinities,
/// the extreme finite and subnormal values, the edges of the exactly
/// representable integers (2^53) and of `u64` (2^64).
#[test]
fn special_and_boundary_values() {
    let two53 = 9_007_199_254_740_992.0_f64;
    let two64 = 18_446_744_073_709_551_616.0_f64;
    let specials = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::EPSILON,
        1e-9,
        -1e-9,
        0.5,
        -0.5,
        1.0,
        -1.0,
        two53,
        two53 + 2.0,
        two53 - 1.0,
        two64,
        two64 * 2.0,
        u64::MAX as f64,
    ];
    for x in specials {
        assert_matches(x);
        assert_matches(x.next_up());
        assert_matches(x.next_down());
    }
}

/// Exact integers, and the neighbouring `f64`s just above and below them,
/// across the whole magnitude range.
#[test]
fn integers_and_their_neighbours() {
    check(512, |g| {
        let magnitude = g.u64_in(0, 66) as i32;
        let k = (g.f64_in(0.0, 1.0) * 2f64.powi(magnitude)).floor();
        for x in [k, -k] {
            assert_matches(x);
            assert_matches(x.next_up());
            assert_matches(x.next_down());
            assert_matches(x + 0.5);
        }
    });
}

/// The quotients the scheduler rounds: volume over speed or wall time.
#[test]
fn scheduler_quotients() {
    check(1024, |g| {
        let volume = g.f64_in(0.0, 100.0);
        let divisor = *g.pick(&[1.0, 2.5, 3.0, 5.0, 7.5, 10.0, 1.0 / 3.0 * 10.0]);
        assert_matches(volume / divisor);
        assert_matches(g.u64_in(0, 10_000) as f64 * g.f64_in(0.0, 4.0));
    });
}

/// Uniformly random bit patterns: every sign, exponent and mantissa,
/// NaN payloads included.
#[test]
fn random_bit_patterns() {
    check(4096, |g| {
        let x = f64::from_bits(g.rng().next_u64());
        assert_matches(x);
    });
}
