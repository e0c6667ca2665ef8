//! System configuration mirroring Table 2 of the paper.
//!
//! The defaults reproduce the evaluated system: 18 OoO cores, a three-level
//! cache hierarchy (32KB L1 / 1MB L2 / 8MB shared LLC), two memory
//! controllers with two channels each, 128 WPQ entries per channel, DRAM +
//! battery-backed-DRAM persistent memory, and ASAP's structure sizes
//! (4-entry CL List per core, 128-entry Dependence List and LH-WPQ per
//! channel, 1KB bloom filter per channel).

/// Cache line size in bytes, fixed at 64 throughout the model.
pub const LINE_BYTES: u64 = 64;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Widest associativity the model supports: the cache tag arrays hold
    /// each set's ways inline ([`SystemConfig::validate`] rejects more).
    pub const MAX_WAYS: u32 = 16;

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / LINE_BYTES;
        assert!(
            lines > 0 && lines.is_multiple_of(self.ways as u64),
            "cache geometry must divide into whole sets"
        );
        lines / self.ways as u64
    }
}

/// Memory-system timing and sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of memory controllers.
    pub controllers: u32,
    /// Channels per controller.
    pub channels_per_mc: u32,
    /// WPQ entries per channel.
    pub wpq_entries: u32,
    /// DRAM array access latency in cycles (row activation + transfer).
    pub dram_latency: u64,
    /// Per-channel service time for one 64B write, in cycles (bandwidth).
    pub dram_write_service: u64,
    /// PM latency multiplier relative to battery-backed DRAM (Fig. 10
    /// sweeps 1, 2, 4, 16).
    pub pm_latency_mult: u64,
    /// On-chip hop from LLC/cache controller to a memory controller.
    pub mc_hop_latency: u64,
    /// Cycles an accepted entry rests in the WPQ before the controller
    /// writes it out under light load (writes yield to reads; lazy
    /// draining is what gives the §5.1 dropping optimizations their
    /// window). 0 = drain eagerly.
    pub wpq_residency: u64,
    /// Occupancy at which the controller drains eagerly regardless of
    /// residency (backpressure threshold).
    pub wpq_drain_watermark: u32,
}

impl MemConfig {
    /// Total number of memory channels.
    pub fn num_channels(&self) -> u32 {
        self.controllers * self.channels_per_mc
    }

    /// PM array access latency in cycles.
    pub fn pm_latency(&self) -> u64 {
        self.dram_latency * self.pm_latency_mult
    }

    /// Per-channel service time for one 64B PM write.
    pub fn pm_write_service(&self) -> u64 {
        self.dram_write_service * self.pm_latency_mult
    }
}

/// Sizes of ASAP's hardware structures (§4.3, §6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsapConfig {
    /// Modified Cache Line List entries per core (paper: 4).
    pub cl_list_entries: u32,
    /// CLPtr slots per CL List entry (paper: 8).
    pub clptr_slots: u32,
    /// Dependence List entries per channel (paper: 128).
    pub dep_list_entries: u32,
    /// Dep slots per Dependence List entry (paper: 4).
    pub dep_slots: u32,
    /// LH-WPQ entries per channel (paper: 128; §7.4 evaluates 16).
    pub lh_wpq_entries: u32,
    /// Bloom filter size in bits per channel (paper: 1KB = 8192 bits).
    pub bloom_bits: u32,
    /// Writes to *other* lines before a dirty line's DPO is initiated
    /// (paper: empirically 4 — §4.6.2).
    pub dpo_distance: u32,
    /// Log-record data entries per header line (paper: 7 — Fig. 5a).
    pub log_entries_per_record: u32,
    /// §7.3 NUMA extension: Dependence List entries track whether a RID
    /// exists as a dependence in a remote list, so a commit broadcast
    /// only messages the channels that hold it. Affects the
    /// `asap.broadcast.messages` statistic (commits are asynchronous, so
    /// broadcast traffic is off the critical path either way).
    pub numa_broadcast_filter: bool,
}

impl AsapConfig {
    /// CL List bytes per core (§6.2: 4 entries × [8 CLPtrs × 1B + 2-bit
    /// state + 4B RID] ≈ 49B with the paper's parameters).
    pub fn cl_list_bytes_per_core(&self) -> u64 {
        // 1B per CLPtr, 2-bit state (bit-packed across entries), 4B RID.
        let entry_bits = u64::from(self.clptr_slots) * 8 + 2 + 32;
        (u64::from(self.cl_list_entries) * entry_bits).div_ceil(8)
    }

    /// Dependence List bytes per channel (§6.2: 128 entries × [4 Deps ×
    /// 4B + 2-bit state + 4B RID]).
    pub fn dep_list_bytes_per_channel(&self) -> u64 {
        let entry_bits = u64::from(self.dep_slots) * 32 + 2 + 32;
        (u64::from(self.dep_list_entries) * entry_bits).div_ceil(8)
    }

    /// LH-WPQ bytes per channel (§6.2: 70B per entry — 6B LogHeaderAddr
    /// plus the 64B LogHeader).
    pub fn lh_wpq_bytes_per_channel(&self) -> u64 {
        u64::from(self.lh_wpq_entries) * (6 + 64)
    }

    /// Bloom filter bytes per channel (§6.2 / Table 2: 1KB).
    pub fn bloom_bytes_per_channel(&self) -> u64 {
        u64::from(self.bloom_bits).div_ceil(8)
    }
}

/// The complete simulated system configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores (paper: 18).
    pub cores: u32,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Per-core L2 cache.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Memory controllers, channels, WPQ, DRAM/PM timing.
    pub mem: MemConfig,
    /// ASAP hardware structure sizes.
    pub asap: AsapConfig,
    /// Cost in cycles of one ALU/compute step charged by workloads.
    pub compute_cost: u64,
    /// Cost in cycles of retiring a store into the L1 (store buffer hit).
    pub store_cost: u64,
    /// Cost of a lock acquisition (uncontended CAS + fence).
    pub lock_cost: u64,
}

impl SystemConfig {
    /// The Table 2 configuration of the paper.
    pub fn table2() -> Self {
        SystemConfig {
            cores: 18,
            l1: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 1 << 20,
                ways: 16,
                latency: 14,
            },
            llc: CacheConfig {
                size_bytes: 8 << 20,
                ways: 16,
                latency: 42,
            },
            mem: MemConfig {
                controllers: 2,
                channels_per_mc: 2,
                wpq_entries: 128,
                dram_latency: 150,
                dram_write_service: 12,
                pm_latency_mult: 1,
                mc_hop_latency: 40,
                wpq_residency: 1500,
                wpq_drain_watermark: 32,
            },
            asap: AsapConfig {
                cl_list_entries: 4,
                clptr_slots: 8,
                dep_list_entries: 128,
                dep_slots: 4,
                lh_wpq_entries: 128,
                bloom_bits: 8 * 1024,
                dpo_distance: 4,
                log_entries_per_record: 7,
                numa_broadcast_filter: false,
            },
            compute_cost: 1,
            store_cost: 1,
            lock_cost: 20,
        }
    }

    /// A scaled-down configuration for fast unit tests: 4 cores, small
    /// caches (so evictions actually happen), identical timing shape.
    pub fn small() -> Self {
        let mut c = Self::table2();
        c.cores = 4;
        c.l1 = CacheConfig {
            size_bytes: 4 << 10,
            ways: 4,
            latency: 4,
        };
        c.l2 = CacheConfig {
            size_bytes: 16 << 10,
            ways: 8,
            latency: 14,
        };
        c.llc = CacheConfig {
            size_bytes: 64 << 10,
            ways: 8,
            latency: 42,
        };
        c
    }

    /// Returns this configuration with a different PM latency multiplier.
    pub fn with_pm_latency_mult(mut self, mult: u64) -> Self {
        self.mem.pm_latency_mult = mult;
        self
    }

    /// Returns this configuration with a different LH-WPQ size (§7.4).
    pub fn with_lh_wpq_entries(mut self, entries: u32) -> Self {
        self.asap.lh_wpq_entries = entries;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be nonzero".into());
        }
        if self.mem.num_channels() == 0 {
            return Err("need at least one memory channel".into());
        }
        if self.asap.clptr_slots == 0 || self.asap.dep_slots == 0 {
            return Err("ASAP slot counts must be nonzero".into());
        }
        if self.asap.log_entries_per_record == 0 || self.asap.log_entries_per_record > 7 {
            return Err("log record holds 1..=7 data entries (64B header)".into());
        }
        for (name, c) in [("l1", &self.l1), ("l2", &self.l2), ("llc", &self.llc)] {
            let lines = c.size_bytes / LINE_BYTES;
            if lines == 0 || !lines.is_multiple_of(c.ways as u64) {
                return Err(format!("{name} geometry invalid"));
            }
            // The tag arrays index sets by mask and hold sets inline.
            if !(lines / c.ways as u64).is_power_of_two() {
                return Err(format!("{name} set count must be a power of two"));
            }
            if c.ways > CacheConfig::MAX_WAYS {
                let max = CacheConfig::MAX_WAYS;
                return Err(format!("{name} has more than {max} ways"));
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::table2()
    }
}

/// Every `ASAP_`-prefixed environment variable the simulator and its
/// harnesses understand. [`warn_unknown_asap_env`] checks the process
/// environment against this registry so typos (`ASAP_RUNCACHE_DIRR`, …)
/// are reported instead of silently ignored.
pub const KNOWN_ASAP_ENV: &[&str] = &[
    "ASAP_BENCHES",
    "ASAP_CRASH_SWEEP",
    "ASAP_EVENTS",
    "ASAP_JOBS",
    "ASAP_OPS",
    "ASAP_PROGRESS",
    "ASAP_REPORT_OUT",
    "ASAP_RUNCACHE",
    "ASAP_RUNCACHE_DIR",
    "ASAP_SWEEP_JOBS",
    "ASAP_TELEMETRY",
    "ASAP_TELEMETRY_OUT",
    "ASAP_THREADS",
    "ASAP_WALLCLOCK",
];

/// Returns the `ASAP_`-prefixed names from `names` that are not in
/// [`KNOWN_ASAP_ENV`], sorted. Pure so it is testable without touching the
/// process environment.
pub fn unknown_asap_vars<I, S>(names: I) -> Vec<String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut out: Vec<String> = names
        .into_iter()
        .map(Into::into)
        .filter(|n| n.starts_with("ASAP_") && !KNOWN_ASAP_ENV.contains(&n.as_str()))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Scans the process environment once and warns on stderr about any
/// unrecognized `ASAP_`-prefixed variable. Harness entry points call this;
/// repeat calls are no-ops.
pub fn warn_unknown_asap_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let names = std::env::vars_os().filter_map(|(k, _)| k.into_string().ok());
        for name in unknown_asap_vars(names) {
            crate::obs_warn!(
                "warning: unrecognized environment variable {name} \
                 (known ASAP_* knobs: {})",
                KNOWN_ASAP_ENV.join(", ")
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let c = SystemConfig::table2();
        assert_eq!(c.cores, 18);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.latency, 4);
        assert_eq!(c.l2.latency, 14);
        assert_eq!(c.llc.latency, 42);
        assert_eq!(c.mem.num_channels(), 4);
        assert_eq!(c.mem.wpq_entries, 128);
        assert_eq!(c.asap.cl_list_entries, 4);
        assert_eq!(c.asap.dep_list_entries, 128);
        assert_eq!(c.asap.lh_wpq_entries, 128);
        assert_eq!(c.asap.dpo_distance, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cache_sets_computed() {
        let c = SystemConfig::table2();
        assert_eq!(c.l1.sets(), 64); // 32KB / 64B / 8 ways
        assert_eq!(c.llc.sets(), 8192); // 8MB / 64B / 16 ways
    }

    #[test]
    fn pm_latency_scales_with_multiplier() {
        let c = SystemConfig::table2().with_pm_latency_mult(16);
        assert_eq!(c.mem.pm_latency(), 150 * 16);
        assert_eq!(c.mem.pm_write_service(), 12 * 16);
    }

    #[test]
    fn with_lh_wpq_entries_overrides() {
        let c = SystemConfig::table2().with_lh_wpq_entries(16);
        assert_eq!(c.asap.lh_wpq_entries, 16);
    }

    #[test]
    fn small_config_is_valid() {
        assert!(SystemConfig::small().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut c = SystemConfig::table2();
        c.l1.size_bytes = 100; // not a whole number of sets
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table2();
        c.cores = 0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table2();
        c.asap.log_entries_per_record = 9;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table2();
        c.llc.size_bytes = 6 << 20; // 6144 sets: not a power of two
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table2();
        c.l2.ways = 32; // 512 sets, but wider than the inline set
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_table2() {
        assert_eq!(SystemConfig::default(), SystemConfig::table2());
    }

    /// §6.2's structure-size arithmetic with the paper's parameters.
    #[test]
    fn sec62_structure_sizes_match_paper() {
        let a = SystemConfig::table2().asap;
        // "The CL List in each core has 4 entries, and its size is 49B
        // (8 CLPtrs/entry, 1B/CLPtr, 2 bits/State, 4B/RID)."
        assert_eq!(a.cl_list_bytes_per_core(), 49);
        // "The Dependence List has 128 entries per memory channel
        // (4 Dep/entry, 4B/Dep, 2 bits/State, and 4B/RID)."
        assert_eq!(a.dep_list_bytes_per_channel(), 128 * 20 + 32);
        // "The LH-WPQ has 70B/entry (6B LogHeaderAddr, 64B/LogHeader)."
        assert_eq!(a.lh_wpq_bytes_per_channel(), 128 * 70);
        // Table 2: "Bloom filter: 1KB/channel".
        assert_eq!(a.bloom_bytes_per_channel(), 1024);
    }

    #[test]
    fn env_registry_flags_typos_only() {
        let names = [
            "ASAP_RUNCACHE",      // known
            "ASAP_RUNCACHE_DIRR", // typo
            "ASAP_TELEMETRY",     // known
            "ASAP_TELEMETRY_OUT",
            "PATH",      // non-ASAP: ignored
            "ASAPX_FOO", // no underscore prefix match: ignored
            "ASAP_FRobnicate",
        ];
        let unknown = unknown_asap_vars(names);
        assert_eq!(unknown, vec!["ASAP_FRobnicate", "ASAP_RUNCACHE_DIRR"]);
    }

    #[test]
    fn env_registry_accepts_all_known() {
        assert!(unknown_asap_vars(KNOWN_ASAP_ENV.iter().map(|s| s.to_string())).is_empty());
        // Registry stays sorted so the warning text is stable.
        let mut sorted = KNOWN_ASAP_ENV.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KNOWN_ASAP_ENV);
    }

    #[test]
    fn env_registry_dedups() {
        let unknown = unknown_asap_vars(["ASAP_OOPS", "ASAP_OOPS"]);
        assert_eq!(unknown, vec!["ASAP_OOPS"]);
    }

    #[test]
    fn warn_unknown_asap_env_is_idempotent() {
        warn_unknown_asap_env();
        warn_unknown_asap_env();
    }
}
