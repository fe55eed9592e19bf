//! Round-trip property tests: `parse(emit(x)) == x` for arbitrary finite
//! JSON trees, through both the pretty and the compact emitter.

use nilm_json::{parse, validate, JsonValue};
use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::Rng as _;
use std::collections::BTreeMap;

/// Generates arbitrary JSON trees of bounded depth. The vendored proptest
/// has no tuple strategies, so this is a hand-rolled [`Strategy`]: leaves
/// cover null/bool/number/string (numbers span integers, magnitudes and
/// signed zero; strings span the whole BMP, control characters, quotes and
/// backslashes included), inner nodes are arrays and objects of up to 5
/// children.
#[derive(Clone, Copy, Debug)]
struct JsonTree {
    depth: u32,
}

fn random_number(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..7u32) {
        0 => rng.random_range(-1_000_000i64..1_000_000) as f64,
        1 => rng.random_range(-1.0e12f64..1.0e12),
        2 => rng.random_range(-1.0f64..1.0) * 1e-9,
        3 => 0.0,
        4 => -0.0,
        5 => f64::MAX,
        _ => f64::MIN_POSITIVE,
    }
}

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.random_range(0..12usize);
    (0..len)
        .map(|_| {
            let cp = rng.random_range(0u32..0xFFFF);
            // Surrogate code points are not chars; fold them to U+FFFD.
            char::from_u32(cp).unwrap_or('\u{FFFD}')
        })
        .collect()
}

fn random_value(rng: &mut StdRng, depth: u32) -> JsonValue {
    let leaf_only = depth == 0;
    match rng.random_range(0..if leaf_only { 5u32 } else { 7 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.random_range(0..2u32) == 1),
        2 => JsonValue::Number(random_number(rng)),
        3 => JsonValue::String(random_string(rng)),
        4 => JsonValue::Array(Vec::new()),
        5 => {
            let n = rng.random_range(0..5usize);
            JsonValue::Array((0..n).map(|_| random_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.random_range(0..5usize);
            let map: BTreeMap<String, JsonValue> =
                (0..n).map(|_| (random_string(rng), random_value(rng, depth - 1))).collect();
            JsonValue::Object(map)
        }
    }
}

impl Strategy for JsonTree {
    type Value = JsonValue;

    fn sample(&self, rng: &mut StdRng) -> JsonValue {
        random_value(rng, self.depth)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pretty emission round-trips exactly.
    #[test]
    fn pretty_round_trips(doc in JsonTree { depth: 3 }) {
        let text = doc.to_pretty();
        let back = parse(&text)
            .map_err(|e| TestCaseError::Fail(format!("emitted doc rejected: {e}\n{text}")))?;
        prop_assert_eq!(back, doc);
    }

    /// Compact emission round-trips exactly and stays valid.
    #[test]
    fn compact_round_trips(doc in JsonTree { depth: 3 }) {
        let text = doc.to_compact();
        prop_assert!(validate(&text).is_ok());
        let back = parse(&text)
            .map_err(|e| TestCaseError::Fail(format!("emitted doc rejected: {e}")))?;
        prop_assert_eq!(back, doc);
    }
}

/// Both emitters write every number byte-for-byte as `Display` does —
/// integral values (which take a digit loop below 2^53) and everything
/// else alike — and non-finite numbers as `null`.
#[test]
fn numbers_emit_exactly_as_display() {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    let values = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        255.0,
        TWO_53 - 1.0,
        -(TWO_53 - 1.0),
        TWO_53,
        -TWO_53,
        1e15,
        1e16,
        1e21,
        1e300,
        0.5,
        0.1f32 as f64,
    ];
    // Every power of two up to 2^64 and its neighbours, both signs: each
    // side of the digit loop's 2^53 bound.
    let powers = (0..=64).flat_map(|k| {
        let p = 2f64.powi(k);
        [p - 1.0, p, p + 1.0].into_iter().flat_map(|v| [v, -v])
    });
    for n in values.into_iter().chain(powers) {
        let doc = JsonValue::Number(n);
        assert_eq!(doc.to_compact(), format!("{n}"), "compact emission of {n:?}");
        assert_eq!(doc.to_pretty(), format!("{n}\n"), "pretty emission of {n:?}");
    }
    for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let doc = JsonValue::Number(n);
        assert_eq!(doc.to_compact(), "null", "compact emission of {n:?}");
        assert_eq!(doc.to_pretty(), "null\n", "pretty emission of {n:?}");
    }
}
