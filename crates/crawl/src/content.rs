//! DMap-style content classification for `.nl` (Tables 6–7).
//!
//! The paper classifies `.nl` web content into *placeholder* pages
//! (hosting-provider defaults), *e-commerce* (shopping carts), and
//! *parking*, and reports strikingly different median TTLs: parked
//! domains sit at day-long NS and DNSKEY TTLs (nobody touches them),
//! while e-commerce and placeholders live at 4 h.

use dnsttl_netsim::SimRng;

/// A `.nl` domain's content category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ContentCategory {
    /// Hosting-provider default landing page (1.2 M domains in
    /// Table 6 — by far the biggest class).
    Placeholder,
    /// Webshop with a cart (148 k domains).
    Ecommerce,
    /// Parked domain (127 k domains).
    Parking,
}

impl ContentCategory {
    /// All categories in Table 6 order.
    pub const ALL: [ContentCategory; 3] = [
        ContentCategory::Placeholder,
        ContentCategory::Ecommerce,
        ContentCategory::Parking,
    ];

    /// Table 6 label.
    pub fn label(self) -> &'static str {
        match self {
            ContentCategory::Placeholder => "Placeholder",
            ContentCategory::Ecommerce => "E-commerce",
            ContentCategory::Parking => "Parking",
        }
    }

    /// Samples a category with Table 6 proportions.
    pub fn sample(rng: &mut SimRng) -> ContentCategory {
        let weights = [1_199_152.0, 148_564.0, 127_551.0];
        Self::ALL[rng.weighted_index(&weights)]
    }

    /// Biases an NS TTL toward the category's Table 7 median:
    /// parking pushes to 24 h; the others to ≈4 h.
    pub(crate) fn bias_ns_ttl(self, sampled: u32) -> u32 {
        match self {
            ContentCategory::Parking => sampled.max(86_400),
            _ => sampled.clamp(3_600, 21_600),
        }
    }

    /// Same for DNSKEY (Table 7: parking 24 h, placeholder 4 h,
    /// e-commerce 1 h).
    pub(crate) fn bias_dnskey_ttl(self, sampled: u32) -> u32 {
        match self {
            ContentCategory::Parking => sampled.max(86_400),
            ContentCategory::Placeholder => sampled.clamp(3_600, 14_400),
            ContentCategory::Ecommerce => sampled.clamp(600, 3_600),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_matches_table6_proportions() {
        let mut rng = SimRng::seed_from(1);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            let c = ContentCategory::sample(&mut rng);
            counts[ContentCategory::ALL.iter().position(|&x| x == c).unwrap()] += 1;
        }
        // Placeholder ≈ 81%, E-commerce ≈ 10%, Parking ≈ 9%.
        let share = |i: usize| counts[i] as f64 / 30_000.0;
        assert!((share(0) - 0.813).abs() < 0.02, "{}", share(0));
        assert!((share(1) - 0.101).abs() < 0.02, "{}", share(1));
        assert!((share(2) - 0.086).abs() < 0.02, "{}", share(2));
    }

    #[test]
    fn parking_bias_yields_day_long_ns() {
        assert_eq!(ContentCategory::Parking.bias_ns_ttl(300), 86_400);
        assert_eq!(ContentCategory::Parking.bias_ns_ttl(172_800), 172_800);
    }

    #[test]
    fn ecommerce_ns_clamped_to_hours() {
        assert_eq!(ContentCategory::Ecommerce.bias_ns_ttl(60), 3_600);
        assert_eq!(ContentCategory::Ecommerce.bias_ns_ttl(172_800), 21_600);
    }

    #[test]
    fn labels() {
        assert_eq!(ContentCategory::Placeholder.label(), "Placeholder");
    }
}
