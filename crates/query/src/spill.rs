//! Spilling intermediate state to verified storage (§5.4).
//!
//! The paper: "when the intermediate state is large (e.g., because of
//! introduction of materialization points …) and beyond the capacity of
//! EPC, it needs to be offloaded to untrusted memory. We can rely on the
//! secure swap of SGX, however, the secure swap can be expensive …
//! Alternatively, we can reuse the trusted storage of VeriDB for storing
//! the intermediate results."
//!
//! [`SpilledRows`] implements that alternative: a row buffer that keeps a
//! bounded prefix in (EPC-accounted) enclave memory and writes the
//! overflow into write-read-consistent memory cells. Spilled rows are
//! re-read through the protected `Read` primitive, so any host tampering
//! with intermediate results is caught by the same deferred verification
//! that covers base tables — *without* paying SGX page-swap costs
//! (~40 000 cycles/page; a protected read is two PRF evaluations).
//!
//! The cells are deleted on drop through the protected path, keeping the
//! RS/WS digests balanced.

use std::sync::Arc;
use veridb_common::obs::{Metric, Metrics};
use veridb_common::{Error, Result, Row};
use veridb_wrcm::{CellAddr, PageOwner, VerifiedMemory};

/// Execution context threaded through operator construction.
#[derive(Clone, Default)]
pub struct ExecContext {
    /// Verified memory to spill into (`None` disables spilling).
    pub mem: Option<Arc<VerifiedMemory>>,
    /// Spill once an operator's buffered bytes exceed this many bytes.
    pub spill_threshold: Option<usize>,
    /// `veridb-obs` registry for executor metrics (a private one unless
    /// the engine passes its own).
    pub metrics: Arc<Metrics>,
    /// Per-query degree of parallelism for parallel regions — the cap
    /// on shared scheduler-pool workers one region may occupy (`0` =
    /// use the DOP recorded in the plan's Exchange nodes; `1` = run
    /// regions serially inline).
    pub workers: usize,
}

impl ExecContext {
    /// A context that spills to `mem` beyond `threshold` bytes.
    pub fn with_spill(mem: Arc<VerifiedMemory>, threshold: usize) -> Self {
        ExecContext {
            metrics: Arc::clone(mem.metrics()),
            mem: Some(mem),
            spill_threshold: Some(threshold),
            workers: 0,
        }
    }
}

/// A materialized row buffer with verified-storage overflow.
pub struct SpilledRows {
    ctx: ExecContext,
    in_mem: Vec<Row>,
    in_mem_bytes: usize,
    /// Scratch pages owned by this buffer.
    pages: Vec<u64>,
    /// The page owner of those pages, minted with the first one: no table
    /// read accepts a spilled cell, and this buffer reads no other cell.
    owner: Option<PageOwner>,
    /// Addresses of spilled rows, in push order.
    spilled: Vec<CellAddr>,
}

impl SpilledRows {
    /// Empty buffer under `ctx`.
    pub fn new(ctx: ExecContext) -> Self {
        SpilledRows {
            ctx,
            in_mem: Vec::new(),
            in_mem_bytes: 0,
            pages: Vec::new(),
            owner: None,
            spilled: Vec::new(),
        }
    }

    /// Total rows buffered.
    pub fn len(&self) -> usize {
        self.in_mem.len() + self.spilled.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows that overflowed to verified storage.
    pub fn spilled_rows(&self) -> usize {
        self.spilled.len()
    }

    fn should_spill(&self) -> bool {
        match (&self.ctx.mem, self.ctx.spill_threshold) {
            (Some(_), Some(t)) => self.in_mem_bytes >= t,
            _ => false,
        }
    }

    /// Append a row, spilling if the in-memory prefix is at capacity.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if !self.should_spill() {
            self.in_mem_bytes += approx_row_bytes(&row);
            self.in_mem.push(row);
            return Ok(());
        }
        let mem = self.ctx.mem.as_ref().expect("checked by should_spill");
        let bytes = row.encode_to_vec();
        if self.spilled.is_empty() {
            self.ctx.metrics.inc(Metric::SpillEvents);
        }
        self.ctx.metrics.add(Metric::SpillBytes, bytes.len() as u64);
        // Try the most recent scratch page, then a fresh one.
        if let Some(&pid) = self.pages.last() {
            match mem.insert_in(pid, &bytes) {
                Ok(addr) => {
                    self.spilled.push(addr);
                    return Ok(());
                }
                Err(Error::PageFull { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        let owner = *self.owner.get_or_insert_with(|| mem.new_owner());
        let pid = mem.allocate_page_for(owner);
        self.pages.push(pid);
        let addr = mem.insert_in(pid, &bytes)?;
        self.spilled.push(addr);
        Ok(())
    }

    /// Random access by push index. Spilled rows come back through the
    /// protected read (verified, digest-folded).
    pub fn get(&self, i: usize) -> Result<Row> {
        if i < self.in_mem.len() {
            return Ok(self.in_mem[i].clone());
        }
        let addr = *self
            .spilled
            .get(i - self.in_mem.len())
            .ok_or_else(|| Error::InvalidArgument(format!("row index {i} out of range")))?;
        let mem = self.ctx.mem.as_ref().expect("spilled rows imply a memory");
        let owner = self.owner.expect("spilled rows imply a scratch page");
        let bytes = mem.read_as(owner, addr)?;
        Row::decode_from_slice(&bytes).map_err(|e| {
            Error::TamperDetected(format!("malformed spilled intermediate row at {addr}: {e}"))
        })
    }

    /// Read everything back into memory (verified reads for the spilled
    /// suffix) — used by consumers that must sort or merge.
    pub fn to_vec(&self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            out.push(self.get(i)?);
        }
        Ok(out)
    }
}

impl Drop for SpilledRows {
    fn drop(&mut self) {
        // Free spilled cells through the protected path so the digests
        // stay balanced; ignore failures (poisoned memory etc.).
        if let Some(mem) = &self.ctx.mem {
            for addr in self.spilled.drain(..) {
                let _ = mem.delete(addr);
            }
            // Hand the now-empty scratch pages back to the free list so
            // repeated spilling queries reuse them instead of growing
            // `page_count()` forever. A page whose deletes failed above
            // (poisoned memory) still has live cells and is left alone.
            for pid in self.pages.drain(..) {
                let _ = mem.release_page(pid);
            }
        }
    }
}

fn approx_row_bytes(row: &Row) -> usize {
    row.values()
        .iter()
        .map(|v| match v {
            veridb_common::Value::Str(s) => 8 + s.len(),
            _ => 12,
        })
        .sum::<usize>()
        + 24
}

#[cfg(test)]
mod tests {
    use super::*;
    use veridb_common::{Value, VeriDbConfig};
    use veridb_enclave::Enclave;

    fn memory() -> Arc<VerifiedMemory> {
        let enclave = Enclave::create("spill-test", 1 << 22, [21u8; 32]);
        let mut cfg = VeriDbConfig::default();
        cfg.verify_every_ops = None;
        VerifiedMemory::new(enclave, &cfg)
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::Str(format!("payload-{i}"))])
    }

    #[test]
    fn small_buffers_never_spill() {
        let mem = memory();
        let ctx = ExecContext::with_spill(Arc::clone(&mem), 1 << 20);
        let mut b = SpilledRows::new(ctx);
        for i in 0..100 {
            b.push(row(i)).unwrap();
        }
        assert_eq!(b.spilled_rows(), 0);
        assert_eq!(b.get(42).unwrap(), row(42));
        mem.verify_now().unwrap();
    }

    #[test]
    fn overflow_spills_and_reads_back_verified() {
        let mem = memory();
        let ctx = ExecContext::with_spill(Arc::clone(&mem), 256);
        let mut b = SpilledRows::new(ctx);
        for i in 0..500 {
            b.push(row(i)).unwrap();
        }
        assert!(b.spilled_rows() > 400, "most rows must spill");
        assert_eq!(b.len(), 500);
        for i in [0usize, 5, 250, 499] {
            assert_eq!(b.get(i).unwrap(), row(i as i64));
        }
        assert_eq!(b.to_vec().unwrap().len(), 500);
        // Spilled cells are protocol-covered.
        mem.verify_now().unwrap();
        // Dropping frees the cells and keeps digests balanced.
        drop(b);
        mem.verify_now().unwrap();
    }

    #[test]
    fn tampered_spilled_row_is_detected() {
        let mem = memory();
        let ctx = ExecContext::with_spill(Arc::clone(&mem), 64);
        let mut b = SpilledRows::new(ctx);
        for i in 0..50 {
            b.push(row(i)).unwrap();
        }
        assert!(b.spilled_rows() > 0);
        // The host corrupts a spilled intermediate result.
        let victim = b.spilled[0];
        veridb_wrcm::tamper::overwrite_cell(&mem, victim, b"junk").unwrap();
        // Reading it back may yield a decode alarm immediately…
        let immediate = b.get(b.in_mem.len());
        // …and the deferred verification must fail in any case.
        let deferred = mem.verify_now();
        assert!(
            immediate.is_err() || deferred.is_err(),
            "tampering with spilled state must be detected"
        );
        // Suppress the drop-path deletes against poisoned memory.
        std::mem::forget(b);
    }

    #[test]
    fn repeated_spilling_buffers_reuse_scratch_pages() {
        let mem = memory();
        let mut counts = Vec::new();
        for round in 0..6 {
            let ctx = ExecContext::with_spill(Arc::clone(&mem), 128);
            let mut b = SpilledRows::new(ctx);
            for i in 0..300 {
                b.push(row(i)).unwrap();
            }
            assert!(b.spilled_rows() > 0, "round {round} must spill");
            drop(b); // deletes cells AND releases scratch pages
            counts.push(mem.page_count());
        }
        // The first round allocates the scratch pages; every later round
        // must reuse them — page_count stays flat.
        assert!(
            counts.windows(2).all(|w| w[1] == w[0]),
            "page_count must not grow across repeated spilling buffers: {counts:?}"
        );
        assert!(mem.free_page_count() > 0);
        // And digests stay balanced throughout.
        mem.verify_now().unwrap();
        let snap = mem.metrics().snapshot();
        assert!(snap.get(Metric::SpillEvents) >= 6);
        assert!(snap.get(Metric::SpillBytes) > 0);
        assert!(snap.get(Metric::PagesReused) > 0);
    }

    #[test]
    fn no_spill_context_keeps_everything_in_memory() {
        let mut b = SpilledRows::new(ExecContext::default());
        for i in 0..1000 {
            b.push(row(i)).unwrap();
        }
        assert_eq!(b.spilled_rows(), 0);
    }
}
