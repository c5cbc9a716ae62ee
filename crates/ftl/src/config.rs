//! FTL configuration.

use jitgc_nand::{FaultConfig, Geometry, NandTiming};
use jitgc_sim::json::{JsonError, JsonValue, ObjectBuilder};
use jitgc_sim::{ByteSize, SimDuration};

/// Static configuration of an [`Ftl`](crate::Ftl).
///
/// The physical geometry is **derived**: the device gets enough blocks to
/// hold `user_pages` of logical space plus `op_permille`/1000 of
/// over-provisioning plus `gc_reserve_blocks` the GC engine needs as
/// scratch space for migrations.
///
/// # Example
///
/// ```
/// use jitgc_ftl::FtlConfig;
///
/// let config = FtlConfig::builder()
///     .user_pages(10_000)
///     .op_permille(70)          // 7 % OP, like the paper's SM843T
///     .pages_per_block(128)
///     .page_size_bytes(4096)
///     .build();
/// assert_eq!(config.user_pages(), 10_000);
/// assert!(config.op_pages() >= 700);
/// ```
#[derive(Debug, Clone)]
pub struct FtlConfig {
    user_pages: u64,
    op_permille: u64,
    gc_reserve_blocks: u32,
    sip_filter_threshold_permille: u64,
    wear_level_threshold: u64,
    hot_cold_streams: bool,
    hot_window: SimDuration,
    endurance_limit: Option<u64>,
    fault: Option<FaultConfig>,
    geometry: Geometry,
    timing: NandTiming,
}

impl FtlConfig {
    /// Starts building a configuration. See [`FtlConfigBuilder`].
    #[must_use]
    pub fn builder() -> FtlConfigBuilder {
        FtlConfigBuilder::default()
    }

    /// Number of host-visible logical pages.
    #[must_use]
    pub fn user_pages(&self) -> u64 {
        self.user_pages
    }

    /// Host-visible capacity in bytes.
    #[must_use]
    pub fn user_capacity(&self) -> ByteSize {
        self.geometry.page_size() * self.user_pages
    }

    /// Over-provisioning ratio in permille (70 = 7 %).
    #[must_use]
    pub fn op_permille(&self) -> u64 {
        self.op_permille
    }

    /// Number of over-provisioning pages (`C_OP` in pages).
    #[must_use]
    pub fn op_pages(&self) -> u64 {
        self.user_pages * self.op_permille / 1000
    }

    /// Over-provisioning capacity in bytes (`C_OP`).
    #[must_use]
    pub fn op_capacity(&self) -> ByteSize {
        self.geometry.page_size() * self.op_pages()
    }

    /// Blocks the GC engine keeps for itself as migration scratch space.
    #[must_use]
    pub fn gc_reserve_blocks(&self) -> u32 {
        self.gc_reserve_blocks
    }

    /// SIP filter threshold in permille of a block's valid pages: a BGC
    /// victim candidate whose soon-to-be-invalidated fraction exceeds this
    /// is avoided. Default 250 (25 %): cold blocks carry almost no dirty
    /// overlap while hot, recently-written blocks carry a lot, so
    /// half of the valid pages separates the two populations.
    #[must_use]
    pub fn sip_filter_threshold_permille(&self) -> u64 {
        self.sip_filter_threshold_permille
    }

    /// Erase-count spread (max − min) that triggers static wear leveling.
    #[must_use]
    pub fn wear_level_threshold(&self) -> u64 {
        self.wear_level_threshold
    }

    /// `true` when host writes are split into hot and cold streams
    /// (separate active blocks), so frequently-updated pages do not share
    /// blocks with cold data — an FTL-side complement to SIP filtering
    /// that reduces the valid data GC must migrate.
    #[must_use]
    pub fn hot_cold_streams(&self) -> bool {
        self.hot_cold_streams
    }

    /// A page rewritten within this window of its previous write counts as
    /// hot (only meaningful with [`hot_cold_streams`](Self::hot_cold_streams)).
    #[must_use]
    pub fn hot_window(&self) -> SimDuration {
        self.hot_window
    }

    /// Program/erase endurance limit per block, if device end-of-life is
    /// modeled (`None` = unlimited; 3 000 cycles is typical 20 nm MLC).
    #[must_use]
    pub fn endurance_limit(&self) -> Option<u64> {
        self.endurance_limit
    }

    /// Wear-dependent fault injection parameters, if fault injection is
    /// enabled (`None` = a fault-free device).
    #[must_use]
    pub fn fault(&self) -> Option<&FaultConfig> {
        self.fault.as_ref()
    }

    /// Blocks available for data placement: the full geometry minus the
    /// GC migration scratch reserve. This is the block pool a steady-state
    /// GC cycle actually rotates through — the `T` of mean-field WAF
    /// models (the `jitgc-model` crate).
    #[must_use]
    pub fn data_blocks(&self) -> u64 {
        u64::from(self.geometry.blocks()) - u64::from(self.gc_reserve_blocks)
    }

    /// Pages available for data placement (`data_blocks × pages_per_block`).
    #[must_use]
    pub fn data_pages(&self) -> u64 {
        self.data_blocks() * u64::from(self.geometry.pages_per_block())
    }

    /// Total block-erase budget before endurance exhaustion
    /// (`data_blocks × endurance_limit`), if end-of-life is modeled.
    #[must_use]
    pub fn erase_budget(&self) -> Option<u64> {
        self.endurance_limit
            .map(|cycles| self.data_blocks() * cycles)
    }

    /// The derived physical geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The NAND timing model.
    #[must_use]
    pub fn timing(&self) -> &NandTiming {
        &self.timing
    }

    /// Serializes to the repository's JSON config format. The geometry is
    /// not stored: [`from_json`](Self::from_json) re-derives it from the
    /// same inputs [`build`](FtlConfigBuilder::build) uses. The `fault`
    /// field is emitted only when fault injection is configured, so
    /// fault-free config dumps are unchanged from earlier versions.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let mut b = ObjectBuilder::new()
            .field("user_pages", self.user_pages)
            .field("op_permille", self.op_permille)
            .field("pages_per_block", self.geometry.pages_per_block())
            .field("page_size_bytes", self.geometry.page_size().as_u64())
            .field("gc_reserve_blocks", self.gc_reserve_blocks)
            .field(
                "sip_filter_threshold_permille",
                self.sip_filter_threshold_permille,
            )
            .field("wear_level_threshold", self.wear_level_threshold)
            .field("hot_cold_streams", self.hot_cold_streams)
            .field("hot_window_us", self.hot_window.as_micros())
            .field("endurance_limit", self.endurance_limit)
            .field("timing", self.timing.to_json());
        if let Some(fault) = &self.fault {
            b = b.field("fault", fault.to_json());
        }
        b.build()
    }

    /// Parses the format written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on missing or mistyped fields.
    pub fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        let u64_field = |key: &str| -> Result<u64, JsonError> {
            v.req(key)?
                .as_u64()
                .ok_or_else(|| JsonError::new(format!("`{key}` must be an integer")))
        };
        let u32_field = |key: &str| -> Result<u32, JsonError> {
            u64_field(key)?
                .try_into()
                .map_err(|_| JsonError::new(format!("`{key}` out of range")))
        };
        let mut builder = FtlConfig::builder()
            .user_pages(u64_field("user_pages")?)
            .op_permille(u64_field("op_permille")?)
            .pages_per_block(u32_field("pages_per_block")?)
            .page_size_bytes(u64_field("page_size_bytes")?)
            .gc_reserve_blocks(u32_field("gc_reserve_blocks")?)
            .sip_filter_threshold_permille(u64_field("sip_filter_threshold_permille")?)
            .wear_level_threshold(u64_field("wear_level_threshold")?)
            .timing(NandTiming::from_json(v.req("timing")?)?);
        if v.req("hot_cold_streams")?.as_bool().unwrap_or(false) {
            builder =
                builder.hot_cold_streams(SimDuration::from_micros(u64_field("hot_window_us")?));
        }
        match v.get("endurance_limit") {
            None => {}
            Some(limit) if limit.is_null() => {}
            Some(limit) => {
                let cycles = limit
                    .as_u64()
                    .ok_or_else(|| JsonError::new("`endurance_limit` must be an integer"))?;
                builder = builder.endurance_limit(cycles);
            }
        }
        match v.get("fault") {
            None => {}
            Some(fault) if fault.is_null() => {}
            Some(fault) => builder = builder.fault(FaultConfig::from_json(fault)?),
        }
        Ok(builder.build())
    }

    /// Reconstructs a builder carrying every setting of this
    /// configuration, so a caller can tweak one knob without silently
    /// dropping the others (timing, SIP threshold, endurance, fault
    /// injection, …) the way a fresh builder would.
    #[must_use]
    pub fn to_builder(&self) -> FtlConfigBuilder {
        let mut builder = FtlConfig::builder()
            .user_pages(self.user_pages)
            .op_permille(self.op_permille)
            .pages_per_block(self.geometry.pages_per_block())
            .page_size_bytes(self.geometry.page_size().as_u64())
            .gc_reserve_blocks(self.gc_reserve_blocks)
            .sip_filter_threshold_permille(self.sip_filter_threshold_permille)
            .wear_level_threshold(self.wear_level_threshold)
            .timing(self.timing);
        if self.hot_cold_streams {
            builder = builder.hot_cold_streams(self.hot_window);
        }
        if let Some(limit) = self.endurance_limit {
            builder = builder.endurance_limit(limit);
        }
        if let Some(fault) = self.fault {
            builder = builder.fault(fault);
        }
        builder
    }
}

/// Builder for [`FtlConfig`].
///
/// Defaults: 8 192 user pages, 7 % OP, 128 pages/block, 4 KiB pages,
/// 2 GC-reserve blocks, [`NandTiming::mlc_20nm`], SIP threshold 10 %,
/// wear-level threshold 64.
#[derive(Debug, Clone)]
pub struct FtlConfigBuilder {
    user_pages: u64,
    user_pages_is_bytes: bool,
    op_permille: u64,
    pages_per_block: u32,
    page_size_bytes: u64,
    gc_reserve_blocks: u32,
    sip_filter_threshold_permille: u64,
    wear_level_threshold: u64,
    hot_cold_streams: bool,
    hot_window: SimDuration,
    endurance_limit: Option<u64>,
    fault: Option<FaultConfig>,
    timing: NandTiming,
}

impl Default for FtlConfigBuilder {
    fn default() -> Self {
        FtlConfigBuilder {
            user_pages: 8_192,
            user_pages_is_bytes: false,
            op_permille: 70,
            pages_per_block: 128,
            page_size_bytes: 4_096,
            gc_reserve_blocks: 2,
            sip_filter_threshold_permille: 250,
            wear_level_threshold: 64,
            hot_cold_streams: false,
            hot_window: SimDuration::from_secs(5),
            endurance_limit: None,
            fault: None,
            timing: NandTiming::mlc_20nm(),
        }
    }
}

impl FtlConfigBuilder {
    /// Sets the logical (host-visible) page count.
    #[must_use]
    pub fn user_pages(mut self, pages: u64) -> Self {
        self.user_pages = pages;
        self.user_pages_is_bytes = false;
        self
    }

    /// Sets the host-visible capacity in bytes (converted to pages with the
    /// configured page size at [`build`](Self::build) time).
    #[must_use]
    pub fn user_capacity(mut self, capacity: ByteSize) -> Self {
        self.user_pages = capacity.as_u64();
        self.user_pages_is_bytes = true;
        self
    }

    /// Sets the over-provisioning ratio in permille (70 = 7 %).
    #[must_use]
    pub fn op_permille(mut self, permille: u64) -> Self {
        self.op_permille = permille;
        self
    }

    /// Sets pages per erase block.
    #[must_use]
    pub fn pages_per_block(mut self, pages: u32) -> Self {
        self.pages_per_block = pages;
        self
    }

    /// Sets the page size in bytes.
    #[must_use]
    pub fn page_size_bytes(mut self, bytes: u64) -> Self {
        self.page_size_bytes = bytes;
        self
    }

    /// Sets the GC scratch reserve in blocks (minimum 1).
    #[must_use]
    pub fn gc_reserve_blocks(mut self, blocks: u32) -> Self {
        self.gc_reserve_blocks = blocks;
        self
    }

    /// Sets the SIP filter threshold in permille of valid pages.
    #[must_use]
    pub fn sip_filter_threshold_permille(mut self, permille: u64) -> Self {
        self.sip_filter_threshold_permille = permille;
        self
    }

    /// Sets the erase-count spread that triggers static wear leveling.
    #[must_use]
    pub fn wear_level_threshold(mut self, threshold: u64) -> Self {
        self.wear_level_threshold = threshold;
        self
    }

    /// Enables hot/cold stream separation with the given hot window.
    #[must_use]
    pub fn hot_cold_streams(mut self, window: SimDuration) -> Self {
        self.hot_cold_streams = true;
        self.hot_window = window;
        self
    }

    /// Models device end-of-life: blocks fail after `cycles` erases, and
    /// the failure surfaces as [`FtlError::Nand`](crate::FtlError::Nand)
    /// with [`NandError::BlockWornOut`](jitgc_nand::NandError::BlockWornOut).
    #[must_use]
    pub fn endurance_limit(mut self, cycles: u64) -> Self {
        self.endurance_limit = Some(cycles);
        self
    }

    /// Enables seeded wear-dependent fault injection (see
    /// [`FaultConfig`]). Faults surface as NAND errors the FTL recovers
    /// from: programs are retried elsewhere, erase failures retire the
    /// block, uncorrectable reads are reported to the host layer.
    #[must_use]
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Sets the NAND timing model.
    #[must_use]
    pub fn timing(mut self, timing: NandTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Finalizes the configuration, deriving the physical geometry.
    ///
    /// # Panics
    ///
    /// Panics if user pages, pages per block, page size, or the GC reserve
    /// is zero.
    #[must_use]
    pub fn build(self) -> FtlConfig {
        assert!(self.pages_per_block > 0, "pages per block must be non-zero");
        assert!(self.page_size_bytes > 0, "page size must be non-zero");
        assert!(
            self.gc_reserve_blocks >= 1,
            "gc reserve must be at least one block"
        );
        let user_pages = if self.user_pages_is_bytes {
            self.user_pages.div_ceil(self.page_size_bytes)
        } else {
            self.user_pages
        };
        assert!(user_pages > 0, "user capacity must be non-zero");
        let op_pages = user_pages * self.op_permille / 1000;
        let data_blocks = (user_pages + op_pages).div_ceil(u64::from(self.pages_per_block));
        let blocks =
            u32::try_from(data_blocks).expect("block count fits u32") + self.gc_reserve_blocks;
        let geometry = Geometry::builder()
            .blocks(blocks)
            .pages_per_block(self.pages_per_block)
            .page_size_bytes(self.page_size_bytes)
            .build();
        FtlConfig {
            user_pages,
            hot_cold_streams: self.hot_cold_streams,
            hot_window: self.hot_window,
            endurance_limit: self.endurance_limit,
            fault: self.fault,
            op_permille: self.op_permille,
            gc_reserve_blocks: self.gc_reserve_blocks,
            sip_filter_threshold_permille: self.sip_filter_threshold_permille,
            wear_level_threshold: self.wear_level_threshold,
            geometry,
            timing: self.timing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let c = FtlConfig::builder()
            .user_pages(5_000)
            .op_permille(150)
            .pages_per_block(64)
            .page_size_bytes(8_192)
            .gc_reserve_blocks(3)
            .sip_filter_threshold_permille(400)
            .wear_level_threshold(32)
            .hot_cold_streams(SimDuration::from_secs(7))
            .endurance_limit(3_000)
            .timing(NandTiming::legacy_130nm())
            .build();
        let back = FtlConfig::from_json(&c.to_json()).expect("parse");
        assert_eq!(back.user_pages(), c.user_pages());
        assert_eq!(back.geometry(), c.geometry());
        assert_eq!(back.timing(), c.timing());
        assert_eq!(back.hot_window(), c.hot_window());
        assert_eq!(back.endurance_limit(), c.endurance_limit());
        assert_eq!(
            back.sip_filter_threshold_permille(),
            c.sip_filter_threshold_permille()
        );
    }

    #[test]
    fn json_endurance_limit_optional() {
        let c = FtlConfig::builder().build();
        let back = FtlConfig::from_json(&c.to_json()).expect("parse");
        assert_eq!(back.endurance_limit(), None);
        assert!(back.fault().is_none());
    }

    #[test]
    fn json_fault_round_trips_and_is_omitted_when_absent() {
        let fault = FaultConfig {
            seed: 99,
            program_rate: 0.01,
            erase_rate: 0.02,
            read_rate: 0.005,
            wear_scale: 50,
        };
        let c = FtlConfig::builder().fault(fault).build();
        let back = FtlConfig::from_json(&c.to_json()).expect("parse");
        assert_eq!(back.fault(), Some(&fault));
        // A fault-free config's dump carries no `fault` key at all, so
        // pre-existing dumps stay byte-identical.
        let plain = FtlConfig::builder().build();
        assert!(plain.to_json().get("fault").is_none());
    }

    #[test]
    fn to_builder_preserves_every_setting() {
        let c = FtlConfig::builder()
            .user_pages(5_000)
            .op_permille(150)
            .pages_per_block(64)
            .page_size_bytes(8_192)
            .gc_reserve_blocks(3)
            .sip_filter_threshold_permille(400)
            .wear_level_threshold(32)
            .hot_cold_streams(SimDuration::from_secs(7))
            .endurance_limit(3_000)
            .fault(FaultConfig {
                seed: 5,
                program_rate: 0.1,
                erase_rate: 0.0,
                read_rate: 0.0,
                wear_scale: 100,
            })
            .timing(NandTiming::legacy_130nm())
            .build();
        let back = c.to_builder().build();
        assert_eq!(back.user_pages(), c.user_pages());
        assert_eq!(back.op_permille(), c.op_permille());
        assert_eq!(back.geometry(), c.geometry());
        assert_eq!(back.gc_reserve_blocks(), c.gc_reserve_blocks());
        assert_eq!(
            back.sip_filter_threshold_permille(),
            c.sip_filter_threshold_permille()
        );
        assert_eq!(back.wear_level_threshold(), c.wear_level_threshold());
        assert_eq!(back.hot_cold_streams(), c.hot_cold_streams());
        assert_eq!(back.hot_window(), c.hot_window());
        assert_eq!(back.endurance_limit(), c.endurance_limit());
        assert_eq!(back.fault(), c.fault());
        assert_eq!(back.timing(), c.timing());
        // One tweak, everything else intact.
        let tweaked = c.to_builder().op_permille(300).build();
        assert_eq!(tweaked.op_permille(), 300);
        assert_eq!(tweaked.endurance_limit(), c.endurance_limit());
        assert_eq!(tweaked.timing(), c.timing());
    }

    #[test]
    fn derives_geometry_with_op_and_reserve() {
        let c = FtlConfig::builder()
            .user_pages(1_000)
            .op_permille(70)
            .pages_per_block(100)
            .gc_reserve_blocks(2)
            .build();
        // 1000 user + 70 OP pages = 1070 → 11 data blocks + 2 reserve.
        assert_eq!(c.geometry().blocks(), 13);
        assert_eq!(c.op_pages(), 70);
    }

    #[test]
    fn user_capacity_in_bytes() {
        let c = FtlConfig::builder()
            .user_pages(1_000)
            .page_size_bytes(4_096)
            .build();
        assert_eq!(c.user_capacity(), ByteSize::bytes(4_096_000));
    }

    #[test]
    fn capacity_builder_converts_to_pages() {
        let c = FtlConfig::builder()
            .user_capacity(ByteSize::mib(4))
            .page_size_bytes(4_096)
            .build();
        assert_eq!(c.user_pages(), 1_024);
    }

    #[test]
    fn op_capacity_scales_with_permille() {
        let a = FtlConfig::builder()
            .user_pages(10_000)
            .op_permille(70)
            .build();
        let b = FtlConfig::builder()
            .user_pages(10_000)
            .op_permille(140)
            .build();
        assert_eq!(b.op_pages(), 2 * a.op_pages());
    }

    #[test]
    fn defaults_are_sane() {
        let c = FtlConfig::builder().build();
        assert_eq!(c.user_pages(), 8_192);
        assert_eq!(c.op_permille(), 70);
        assert_eq!(c.gc_reserve_blocks(), 2);
        assert!(c.geometry().total_pages() > c.user_pages() + c.op_pages());
    }

    #[test]
    #[should_panic(expected = "gc reserve must be at least one block")]
    fn zero_reserve_panics() {
        let _ = FtlConfig::builder().gc_reserve_blocks(0).build();
    }

    #[test]
    #[should_panic(expected = "user capacity must be non-zero")]
    fn zero_user_pages_panics() {
        let _ = FtlConfig::builder().user_pages(0).build();
    }
}
