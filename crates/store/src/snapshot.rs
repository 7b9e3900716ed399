//! The versioned, checksummed snapshot format for per-site extraction
//! artifacts.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! magic          8 bytes   b"PVSNAPS\0"
//! version        u32       FORMAT_VERSION (currently 2)
//! 3 x section:
//!   tag          4 bytes   b"META" | b"DATA" | b"SMAP", this order
//!   length       u64       payload bytes
//!   payload      length bytes
//!   crc32        u32       CRC-32 of the payload (damage is localized:
//!                          the error names the broken section)
//! trailer        u32       CRC-32 of every preceding byte of the file
//! ```
//!
//! Decoding is *total*: any malformed input — truncation at any byte, a
//! bit-flip anywhere, an unknown version, a section length past the end of
//! the file — returns [`StoreError::Corrupt`] or
//! [`StoreError::VersionSkew`]; nothing panics and no wrong data is ever
//! returned (a CRC-32 mismatch rejects the file before its contents are
//! interpreted).
//!
//! A snapshot holds only what extraction made, so its bytes are a pure
//! function of (spec, clock, horizon). The evaluator's per-anchor traces
//! are derived data that the first request on a site rebuilds; they are
//! not stored.

use crate::wire::{crc32, put_f32, put_f64, put_u32, put_u64, Reader};
use crate::StoreError;
use pv_floorplan::SuitabilityMap;
use pv_geom::{CellMask, Grid, GridDims};
use pv_gis::{SolarDataset, StepConditions};
use pv_units::{Celsius, Irradiance, SimulationClock};

/// File magic: identifies a pvfloorplan site snapshot.
pub const MAGIC: [u8; 8] = *b"PVSNAPS\0";

/// Current snapshot format version. Bumped on any layout change; files
/// carrying any other version decode to [`StoreError::VersionSkew`].
pub const FORMAT_VERSION: u32 = 2;

/// Hard ceiling on decoded grid size (cells). A corrupt dimension field
/// can claim at most this much before being rejected, bounding decoder
/// allocations independently of the (already length-checked) payload.
pub const MAX_CELLS: usize = 1 << 26;

const TAG_META: [u8; 4] = *b"META";
const TAG_DATA: [u8; 4] = *b"DATA";
const TAG_SMAP: [u8; 4] = *b"SMAP";

/// Identity of a snapshot: everything the serving layer needs to recompute
/// the exact cache key the artifacts were extracted under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Canonical scenario spec string ([`pv_gis::synth::ScenarioSpec::to_spec_string`]).
    pub spec: String,
    /// Simulated days of the extraction clock.
    pub days: u32,
    /// Step length of the extraction clock, in minutes.
    pub step_minutes: u32,
    /// Horizon-scan sectors used by the extractor.
    pub horizon_sectors: u32,
}

/// A decoded site snapshot: the extraction artifacts of one `pv_server`
/// cache entry.
#[derive(Debug)]
pub struct SiteSnapshot {
    /// Snapshot identity (cache-key material).
    pub meta: SnapshotMeta,
    /// The extracted per-cell/per-step solar dataset.
    pub dataset: SolarDataset,
    /// The suitability map computed from `dataset`.
    pub map: SuitabilityMap,
}

impl SiteSnapshot {
    /// Encodes this snapshot to its canonical byte form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        encode_site(&self.meta, &self.dataset, &self.map)
    }

    /// Decodes a snapshot from bytes. Total: see the module docs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for any malformed or damaged input,
    /// [`StoreError::VersionSkew`] for an unsupported format version.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        decode_snapshot(bytes)
    }
}

/// Encodes one site's extraction artifacts into the canonical snapshot
/// bytes.
#[must_use]
pub fn encode_site(meta: &SnapshotMeta, dataset: &SolarDataset, map: &SuitabilityMap) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    push_section(&mut out, TAG_META, &encode_meta(meta));
    push_section(&mut out, TAG_DATA, &encode_data(dataset));
    push_section(&mut out, TAG_SMAP, &encode_smap(map));
    let trailer = crc32(&out);
    put_u32(&mut out, trailer);
    out
}

fn push_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    out.extend_from_slice(&tag);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u32(out, crc32(payload));
}

fn encode_meta(meta: &SnapshotMeta) -> Vec<u8> {
    let mut p = Vec::new();
    put_u32(&mut p, meta.spec.len() as u32);
    p.extend_from_slice(meta.spec.as_bytes());
    put_u32(&mut p, meta.days);
    put_u32(&mut p, meta.step_minutes);
    put_u32(&mut p, meta.horizon_sectors);
    p
}

fn encode_data(dataset: &SolarDataset) -> Vec<u8> {
    let dims = dataset.dims();
    let cells = dims.num_cells();
    let mut p = Vec::new();
    put_u64(&mut p, dims.width() as u64);
    put_u64(&mut p, dims.height() as u64);
    // Valid mask, bit-packed into u64 words (LSB-first within a word, the
    // same convention as the shadow table); padding bits are zero, keeping
    // the encoding canonical.
    let words = cells.div_ceil(64);
    for w in 0..words {
        let mut word = 0u64;
        for bit in 0..64 {
            let idx = w * 64 + bit;
            if idx < cells && dataset.valid().is_set(dims.coord_of(idx)) {
                word |= 1 << bit;
            }
        }
        put_u64(&mut p, word);
    }
    put_u64(&mut p, dataset.step_conditions().len() as u64);
    for c in dataset.step_conditions() {
        put_f64(&mut p, c.beam_normal.as_w_per_m2());
        put_f64(&mut p, c.diffuse_poa.as_w_per_m2());
        put_f64(&mut p, c.ground_poa.as_w_per_m2());
        for &s in &c.sun_direction {
            put_f64(&mut p, s);
        }
        put_f64(&mut p, c.ambient.as_celsius());
        p.push(u8::from(c.sun_up));
    }
    for &v in dataset.sky_view_factors() {
        put_f32(&mut p, v);
    }
    for &r in dataset.beam_row_map() {
        put_u32(&mut p, r);
    }
    put_u64(&mut p, dataset.shadow_row_data().len() as u64);
    for &w in dataset.shadow_row_data() {
        put_u64(&mut p, w);
    }
    for &n in &dataset.base_normal() {
        put_f64(&mut p, n);
    }
    match dataset.cell_normal_data() {
        None => p.push(0),
        Some(normals) => {
            p.push(1);
            for n in normals {
                for &c in n {
                    put_f32(&mut p, c);
                }
            }
        }
    }
    p
}

fn encode_smap(map: &SuitabilityMap) -> Vec<u8> {
    let dims = map.scores().dims();
    let mut p = Vec::new();
    put_u64(&mut p, dims.width() as u64);
    put_u64(&mut p, dims.height() as u64);
    for &v in map.scores().as_slice() {
        put_f64(&mut p, v);
    }
    for &v in map.irradiance_percentile().as_slice() {
        put_f64(&mut p, v);
    }
    put_f64(&mut p, map.percentile());
    p
}

fn decode_snapshot(bytes: &[u8]) -> Result<SiteSnapshot, StoreError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(StoreError::Corrupt("bad magic".into()));
    }
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionSkew {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let meta_payload = read_section(&mut r, TAG_META)?;
    let data_payload = read_section(&mut r, TAG_DATA)?;
    let smap_payload = read_section(&mut r, TAG_SMAP)?;
    let stored_trailer = r.u32("trailer checksum")?;
    r.expect_end("trailer")?;
    let body = bytes
        .get(..bytes.len().saturating_sub(4))
        .unwrap_or_default();
    if crc32(body) != stored_trailer {
        return Err(StoreError::Corrupt("trailer checksum mismatch".into()));
    }

    let meta = decode_meta(meta_payload)?;
    let clock = SimulationClock::try_days_at_minutes(meta.days, meta.step_minutes)
        .map_err(|e| StoreError::Corrupt(e.to_string()))?;
    let (dataset, dims) = decode_data(data_payload, clock)?;
    let map = decode_smap(smap_payload, dims)?;
    Ok(SiteSnapshot { meta, dataset, map })
}

fn read_section<'a>(r: &mut Reader<'a>, tag: [u8; 4]) -> Result<&'a [u8], StoreError> {
    let name = section_name(tag);
    let found = r.take(4, "section tag")?;
    if found != tag {
        return Err(StoreError::Corrupt(format!(
            "expected section {name}, found tag {found:?}"
        )));
    }
    let len = r.u64("section length")?;
    let len = usize::try_from(len)
        .ok()
        .filter(|&n| n.checked_add(4).is_some_and(|total| total <= r.remaining()))
        .ok_or_else(|| {
            StoreError::Corrupt(format!("section {name} length {len} overflows the file"))
        })?;
    let payload = r.take(len, "section payload")?;
    let stored = r.u32("section checksum")?;
    if crc32(payload) != stored {
        return Err(StoreError::Corrupt(format!(
            "section {name} checksum mismatch"
        )));
    }
    Ok(payload)
}

fn section_name(tag: [u8; 4]) -> &'static str {
    match tag {
        TAG_META => "META",
        TAG_DATA => "DATA",
        _ => "SMAP",
    }
}

fn decode_meta(payload: &[u8]) -> Result<SnapshotMeta, StoreError> {
    let mut r = Reader::new(payload);
    let len = r.u32("spec length")? as usize;
    if len > r.remaining() {
        return Err(StoreError::Corrupt(format!(
            "spec length {len} exceeds META payload"
        )));
    }
    let spec = String::from_utf8(r.take(len, "spec string")?.to_vec())
        .map_err(|_| StoreError::Corrupt("spec string is not UTF-8".into()))?;
    let days = r.u32("days")?;
    let step_minutes = r.u32("step minutes")?;
    let horizon_sectors = r.u32("horizon sectors")?;
    r.expect_end("META section")?;
    Ok(SnapshotMeta {
        spec,
        days,
        step_minutes,
        horizon_sectors,
    })
}

fn decode_dims(r: &mut Reader<'_>) -> Result<GridDims, StoreError> {
    let w = r.u64("grid width")?;
    let h = r.u64("grid height")?;
    let (w, h) = (usize::try_from(w), usize::try_from(h));
    let (Ok(w), Ok(h)) = (w, h) else {
        return Err(StoreError::Corrupt("grid dimension overflows usize".into()));
    };
    let cells = w.checked_mul(h).filter(|&c| c > 0 && c <= MAX_CELLS);
    if cells.is_none() {
        return Err(StoreError::Corrupt(format!(
            "grid {w}x{h} outside 1..={MAX_CELLS} cells"
        )));
    }
    Ok(GridDims::new(w, h))
}

fn decode_data(
    payload: &[u8],
    clock: SimulationClock,
) -> Result<(SolarDataset, GridDims), StoreError> {
    let mut r = Reader::new(payload);
    let dims = decode_dims(&mut r)?;
    let cells = dims.num_cells();
    let words = r.u64_vec(cells.div_ceil(64), "valid mask words")?;
    let valid = CellMask::from_fn(dims, |coord| {
        let bit = dims.linear_index(coord);
        words
            .get(bit / 64)
            .is_some_and(|w| w & (1 << (bit % 64)) != 0)
    });
    // Canonicality: padding bits past the last cell must be zero, so a
    // decode→encode round trip reproduces the input bytes exactly.
    let padded = words
        .last()
        .is_some_and(|&w| cells % 64 != 0 && w >> (cells % 64) != 0);
    if padded {
        return Err(StoreError::Corrupt(
            "valid mask has nonzero padding bits".into(),
        ));
    }
    let num_steps = r.count(57, "step conditions")?;
    let mut steps = Vec::with_capacity(num_steps);
    for _ in 0..num_steps {
        let beam = r.f64("beam irradiance")?;
        let diffuse = r.f64("diffuse irradiance")?;
        let ground = r.f64("ground irradiance")?;
        let sun = [
            r.f64("sun direction x")?,
            r.f64("sun direction y")?,
            r.f64("sun direction z")?,
        ];
        let ambient = r.f64("ambient temperature")?;
        let sun_up = match r.u8("sun-up flag")? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::Corrupt(format!(
                    "sun-up flag must be 0 or 1, found {other}"
                )))
            }
        };
        steps.push(StepConditions {
            beam_normal: Irradiance::from_w_per_m2(beam),
            diffuse_poa: Irradiance::from_w_per_m2(diffuse),
            ground_poa: Irradiance::from_w_per_m2(ground),
            sun_direction: sun,
            ambient: Celsius::new(ambient),
            sun_up,
        });
    }
    let svf = r.f32_vec(cells, "sky-view factors")?;
    let beam_row_of_step = r.u32_vec(num_steps, "beam row map")?;
    let shadow_words = r.count(8, "shadow rows")?;
    let shadow_rows = r.u64_vec(shadow_words, "shadow rows")?;
    let base_normal = [
        r.f64("base normal x")?,
        r.f64("base normal y")?,
        r.f64("base normal z")?,
    ];
    let cell_normals = match r.u8("cell-normal flag")? {
        0 => None,
        1 => {
            let flat = r.f32_vec(
                cells
                    .checked_mul(3)
                    .ok_or_else(|| StoreError::Corrupt("cell normal length overflows".into()))?,
                "cell normals",
            )?;
            let mut normals = Vec::with_capacity(cells);
            let mut it = flat.chunks_exact(3);
            for c in &mut it {
                let mut n = [0f32; 3];
                for (d, s) in n.iter_mut().zip(c) {
                    *d = *s;
                }
                normals.push(n);
            }
            Some(normals)
        }
        other => {
            return Err(StoreError::Corrupt(format!(
                "cell-normal flag must be 0 or 1, found {other}"
            )))
        }
    };
    r.expect_end("DATA section")?;
    let dataset = SolarDataset::try_from_parts(
        clock,
        dims,
        valid,
        steps,
        svf,
        beam_row_of_step,
        shadow_rows,
        base_normal,
        cell_normals,
    )
    .map_err(|e| StoreError::Corrupt(format!("inconsistent dataset parts: {e}")))?;
    Ok((dataset, dims))
}

fn decode_smap(payload: &[u8], data_dims: GridDims) -> Result<SuitabilityMap, StoreError> {
    let mut r = Reader::new(payload);
    let dims = decode_dims(&mut r)?;
    if dims != data_dims {
        return Err(StoreError::Corrupt(format!(
            "suitability dims {}x{} do not match dataset dims {}x{}",
            dims.width(),
            dims.height(),
            data_dims.width(),
            data_dims.height()
        )));
    }
    let cells = dims.num_cells();
    let scores = r.f64_vec(cells, "suitability scores")?;
    let g_pct = r.f64_vec(cells, "irradiance percentiles")?;
    let percentile = r.f64("percentile")?;
    r.expect_end("SMAP section")?;
    SuitabilityMap::from_parts(
        Grid::from_vec(dims, scores),
        Grid::from_vec(dims, g_pct),
        percentile,
    )
    .map_err(|e| StoreError::Corrupt(format!("inconsistent suitability parts: {e}")))
}

/// Shared fixture for this crate's unit tests: a tiny hand-built snapshot
/// (mirrors `pv_gis::dataset` test data).
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use pv_geom::CellMask;

    pub(crate) fn sample_snapshot() -> SiteSnapshot {
        let clock = SimulationClock::days_at_minutes(1, 720);
        let dims = GridDims::new(2, 2);
        let up = [0.0, 0.0, 1.0];
        let steps = vec![
            StepConditions {
                beam_normal: Irradiance::from_w_per_m2(500.0),
                diffuse_poa: Irradiance::from_w_per_m2(100.0),
                ground_poa: Irradiance::from_w_per_m2(10.0),
                sun_direction: up,
                ambient: Celsius::new(20.0),
                sun_up: true,
            },
            StepConditions::default(),
        ];
        let dataset = SolarDataset::try_from_parts(
            clock,
            dims,
            CellMask::full(dims),
            steps,
            vec![1.0, 0.5, 1.0, 1.0],
            vec![0, u32::MAX],
            vec![0b0001u64],
            up,
            None,
        )
        .unwrap();
        let scores = Grid::from_vec(dims, vec![1.0, 2.0, f64::NAN, 4.0]);
        let g_pct = Grid::from_vec(dims, vec![10.0, 20.0, f64::NAN, 40.0]);
        let map = SuitabilityMap::from_parts(scores, g_pct, 0.75).unwrap();
        SiteSnapshot {
            meta: SnapshotMeta {
                spec: "pvscn index=0 seed=1 ...".into(),
                days: 1,
                step_minutes: 720,
                horizon_sectors: 16,
            },
            dataset,
            map,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::sample_snapshot as sample;
    use super::*;

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let snap = sample();
        let bytes = snap.encode();
        let back = SiteSnapshot::decode(&bytes).unwrap();
        assert_eq!(back.meta, snap.meta);
        // The canonical re-encode reproduces the input bytes exactly.
        assert_eq!(back.encode(), bytes);
        // And the decoded artifacts answer queries identically (NaN cells
        // included, hence bit compare).
        for idx in 0..4 {
            let cell = snap.dataset.dims().coord_of(idx);
            for i in 0..snap.dataset.num_steps() {
                assert_eq!(
                    back.dataset.irradiance(cell, i),
                    snap.dataset.irradiance(cell, i)
                );
            }
            assert_eq!(
                back.map.score(cell).to_bits(),
                snap.map.score(cell).to_bits()
            );
        }
    }

    #[test]
    fn truncation_at_every_byte_is_corrupt_or_skew_never_panics() {
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            let err = SiteSnapshot::decode(&bytes[..n]).unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "truncation at {n}: {err}"
            );
        }
    }

    #[test]
    fn unknown_version_is_version_skew() {
        // Version 1 (the layout with a MEMO section) included.
        for version in [1u32, 99] {
            let mut bytes = sample().encode();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let err = SiteSnapshot::decode(&bytes).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::VersionSkew { found, supported: FORMAT_VERSION } if found == version
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn section_damage_names_the_section() {
        let snap = sample();
        let bytes = snap.encode();
        // Flip one byte inside the DATA payload (skip magic + version +
        // META section to land in DATA).
        let meta_len = encode_meta(&snap.meta).len();
        let data_start = 12 + 4 + 8 + meta_len + 4 + (4 + 8);
        let mut damaged = bytes.clone();
        damaged[data_start + 10] ^= 0x40;
        let err = SiteSnapshot::decode(&damaged).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("DATA"), "{msg}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(SiteSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn bad_clock_parameters_are_corrupt() {
        let mut snap = sample();
        snap.meta.step_minutes = 7; // does not divide 1440
        let bytes = snap.encode();
        let err = SiteSnapshot::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("divide"), "{err}");
    }
}
