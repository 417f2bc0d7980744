//! Industry verticals: Table 2's network mix.
//!
//! The usage panel spans 19 verticals from Architecture/Engineering (127
//! networks) to VAR/System Integrator (2,876), with Education the largest
//! named segment (4,075). The vertical affects a network's *size profile*
//! (a university network has far more clients than a restaurant) — that is
//! the only downstream effect we model, matching the paper's observation
//! that the panel "is not dominated by one particular industry".

use airstat_stats::dist::WeightedIndex;
use rand::Rng;

/// The 19 industry verticals of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Industry {
    /// Architecture/Engineering.
    ArchitectureEngineering,
    /// Construction.
    Construction,
    /// Consulting.
    Consulting,
    /// Education.
    Education,
    /// Finance/Insurance.
    FinanceInsurance,
    /// Government/Public Sector.
    Government,
    /// Healthcare.
    Healthcare,
    /// Hospitality.
    Hospitality,
    /// Industrial/Manufacturing.
    IndustrialManufacturing,
    /// Legal.
    Legal,
    /// Media/Advertising.
    MediaAdvertising,
    /// Non-Profit.
    NonProfit,
    /// Real Estate.
    RealEstate,
    /// Restaurants.
    Restaurants,
    /// Retail.
    Retail,
    /// Tech.
    Tech,
    /// Telecom.
    Telecom,
    /// VAR/System Integrator.
    VarSystemIntegrator,
    /// Other.
    Other,
}

impl Industry {
    /// All verticals in Table 2 order.
    pub const ALL: [Industry; 19] = [
        Industry::ArchitectureEngineering,
        Industry::Construction,
        Industry::Consulting,
        Industry::Education,
        Industry::FinanceInsurance,
        Industry::Government,
        Industry::Healthcare,
        Industry::Hospitality,
        Industry::IndustrialManufacturing,
        Industry::Legal,
        Industry::MediaAdvertising,
        Industry::NonProfit,
        Industry::RealEstate,
        Industry::Restaurants,
        Industry::Retail,
        Industry::Tech,
        Industry::Telecom,
        Industry::VarSystemIntegrator,
        Industry::Other,
    ];

    /// Table 2's row label.
    pub fn name(self) -> &'static str {
        match self {
            Industry::ArchitectureEngineering => "Architecture/Engineering",
            Industry::Construction => "Construction",
            Industry::Consulting => "Consulting",
            Industry::Education => "Education",
            Industry::FinanceInsurance => "Finance/Insurance",
            Industry::Government => "Government/Public Sector",
            Industry::Healthcare => "Healthcare",
            Industry::Hospitality => "Hospitality",
            Industry::IndustrialManufacturing => "Industrial/Manufacturing",
            Industry::Legal => "Legal",
            Industry::MediaAdvertising => "Media/Advertising",
            Industry::NonProfit => "Non-Profit",
            Industry::RealEstate => "Real Estate",
            Industry::Restaurants => "Restaurants",
            Industry::Retail => "Retail",
            Industry::Tech => "Tech",
            Industry::Telecom => "Telecom",
            Industry::VarSystemIntegrator => "VAR/System Integrator",
            Industry::Other => "Other",
        }
    }

    /// Table 2's network count for this vertical at full scale.
    pub(crate) fn network_count_full(self) -> u32 {
        match self {
            Industry::ArchitectureEngineering => 127,
            Industry::Construction => 333,
            Industry::Consulting => 365,
            Industry::Education => 4_075,
            Industry::FinanceInsurance => 737,
            Industry::Government => 1_112,
            Industry::Healthcare => 1_382,
            Industry::Hospitality => 493,
            Industry::IndustrialManufacturing => 1_220,
            Industry::Legal => 264,
            Industry::MediaAdvertising => 427,
            Industry::NonProfit => 640,
            Industry::RealEstate => 386,
            Industry::Restaurants => 296,
            Industry::Retail => 2_355,
            Industry::Tech => 983,
            Industry::Telecom => 442,
            Industry::VarSystemIntegrator => 2_876,
            Industry::Other => 2_154,
        }
    }
}

/// A sampler that draws verticals proportionally to Table 2.
#[derive(Debug, Clone)]
pub struct IndustryMix {
    weights: WeightedIndex,
}

impl Default for IndustryMix {
    fn default() -> Self {
        Self::paper()
    }
}

impl IndustryMix {
    /// The paper's mix.
    pub fn paper() -> Self {
        IndustryMix {
            weights: WeightedIndex::new(
                Industry::ALL
                    .iter()
                    .map(|i| f64::from(i.network_count_full())),
            ),
        }
    }

    /// Samples a vertical.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Industry {
        Industry::ALL[self.weights.sample(rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airstat_stats::SeedTree;

    #[test]
    fn totals_match_table2() {
        let total: u32 = Industry::ALL.iter().map(|i| i.network_count_full()).sum();
        assert_eq!(total, 20_667);
    }

    #[test]
    fn sampling_tracks_table2_proportions() {
        let mix = IndustryMix::paper();
        let mut rng = SeedTree::new(61).rng();
        let n = 200_000;
        let mut education = 0u32;
        let mut restaurants = 0u32;
        for _ in 0..n {
            match mix.sample(&mut rng) {
                Industry::Education => education += 1,
                Industry::Restaurants => restaurants += 1,
                _ => {}
            }
        }
        let edu_frac = f64::from(education) / n as f64;
        let expected_edu = 4_075.0 / 20_667.0;
        assert!(
            (edu_frac - expected_edu).abs() < 0.005,
            "education {edu_frac}"
        );
        let rest_frac = f64::from(restaurants) / n as f64;
        assert!(
            (rest_frac - 296.0 / 20_667.0).abs() < 0.003,
            "restaurants {rest_frac}"
        );
    }

    #[test]
    fn every_vertical_is_named() {
        for i in Industry::ALL {
            assert!(!i.name().is_empty());
        }
        assert_eq!(Industry::ALL.len(), 19);
    }
}
