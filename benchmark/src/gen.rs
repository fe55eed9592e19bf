//! The benchmark's own seeded input generator: synthetic mains feeds with
//! kettle, microwave and dishwasher activations over a household base
//! load, and the JSON request bodies that carry them. It shares no code
//! with the program's simulators, so changes there cannot move the inputs.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// One appliance the generator can switch on: power while on and run
/// length, in watts and minutes.
#[derive(Clone, Copy, Debug)]
struct Profile {
    watts: (f64, f64),
    minutes: (usize, usize),
    runs_per_day: (usize, usize),
}

const KETTLE: Profile = Profile { watts: (1900.0, 2900.0), minutes: (2, 4), runs_per_day: (3, 7) };
const MICROWAVE: Profile =
    Profile { watts: (900.0, 1400.0), minutes: (2, 6), runs_per_day: (1, 4) };
const DISHWASHER: Profile =
    Profile { watts: (1800.0, 2200.0), minutes: (15, 25), runs_per_day: (0, 2) };

/// A generated feed: id, sampling step and samples (`None` = missing).
#[derive(Clone, Debug)]
pub struct Feed {
    /// Household identifier echoed by the gateway.
    pub id: String,
    /// Seconds between samples.
    pub step_s: u32,
    /// Mains watts; `None` is sent as JSON `null`.
    pub values: Vec<Option<f32>>,
}

/// Shape of the feeds one workload sends.
#[derive(Clone, Copy, Debug)]
pub struct FeedShape {
    /// Minutes of data per feed.
    pub minutes: usize,
    /// Share of feeds sampled every 30 s instead of every 60 s.
    pub fine_share: f64,
    /// Probability that a sample is missing.
    pub null_rate: f64,
}

/// One synthetic household feed.
pub fn feed(rng: &mut Rng, id: String, shape: FeedShape) -> Feed {
    let step_s: u32 = if rng.unit() < shape.fine_share { 30 } else { 60 };
    let per_min = (60 / step_s) as usize;
    let n = shape.minutes * per_min;
    let base = 120.0 + 280.0 * rng.unit();
    let mut watts: Vec<f64> = (0..n)
        .map(|i| {
            // A slow daily swing plus sample noise.
            let phase = (i as f64 / (1440 * per_min) as f64) * std::f64::consts::TAU;
            base * (1.0 + 0.3 * phase.sin()) + 25.0 * (rng.unit() - 0.5)
        })
        .collect();
    let days = (shape.minutes as f64 / 1440.0).max(0.1);
    for profile in [KETTLE, MICROWAVE, DISHWASHER] {
        let lo = profile.runs_per_day.0 as f64 * days;
        let hi = profile.runs_per_day.1 as f64 * days;
        let runs = (lo + (hi - lo) * rng.unit()).round() as usize;
        for _ in 0..runs {
            let len = rng.range(profile.minutes.0, profile.minutes.1) * per_min;
            if len >= n {
                continue;
            }
            let start = rng.range(0, n - len - 1);
            let on = profile.watts.0 + (profile.watts.1 - profile.watts.0) * rng.unit();
            for w in &mut watts[start..start + len] {
                *w += on;
            }
        }
    }
    // The first sample is always present: a leading gap has nothing to
    // forward-fill from and would drop the first window, so every window of
    // every feed stays valid and each request's pass shapes are known.
    let values = watts
        .into_iter()
        .enumerate()
        .map(|(i, w)| if i > 0 && rng.unit() < shape.null_rate { None } else { Some(w as f32) })
        .collect();
    Feed { id, step_s, values }
}

/// Serializes a localize request body. Numbers are written with one
/// decimal; the gateway parses them to the same `f32` the oracle sees.
pub fn request_body(appliances: &[String], feeds: &[Feed], summary: bool) -> String {
    let mut out = String::from("{\"appliances\":[");
    for (i, a) in appliances.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{a}\""));
    }
    out.push_str(&format!(
        "],\"detail\":\"{}\",\"households\":[",
        if summary { "summary" } else { "full" }
    ));
    for (i, f) in feeds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"id\":\"{}\",\"step_s\":{},\"values\":[", f.id, f.step_s));
        for (j, v) in f.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                Some(w) => out.push_str(&format!("{w:.1}")),
                None => out.push_str("null"),
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// The raw HTTP/1.1 keep-alive request carrying `body`.
pub fn http_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/localize HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_feed() {
        let shape = FeedShape { minutes: 1440, fine_share: 0.25, null_rate: 0.01 };
        let a = feed(&mut Rng::new(5), "a".into(), shape);
        let b = feed(&mut Rng::new(5), "a".into(), shape);
        assert_eq!(a.values, b.values);
        assert_eq!(a.values.len(), 1440 * (60 / a.step_s) as usize);
    }

    #[test]
    fn body_is_valid_json_with_nulls() {
        let shape = FeedShape { minutes: 60, fine_share: 0.0, null_rate: 0.5 };
        let f = feed(&mut Rng::new(1), "h".into(), shape);
        let body = request_body(&["refit:kettle".into()], &[f], true);
        let doc = nilm_json::parse(&body).expect("valid JSON");
        assert!(body.contains("null"));
        assert_eq!(doc.get("detail").and_then(|d| d.as_str()), Some("summary"));
    }
}
