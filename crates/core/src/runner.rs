//! Driving predictors over slotted traces.

use crate::predictor::Predictor;
use pred_metrics::{PredictionLog, PredictionRecord, RecordSink};
use solar_trace::SlotView;

/// Runs a streaming predictor over every slot of a view, in time order,
/// and logs one [`PredictionRecord`] per prediction.
///
/// Index semantics follow the paper's Fig. 4 / Eq. 6–7: the prediction
/// `ê(n+1)` made after sampling the boundary of slot `n` estimates the
/// energy of slot `n` itself — the interval between boundaries `n` and
/// `n+1`. Each record therefore carries, at coordinates `(day, slot)` of
/// the *just-entered* slot:
///
/// * `actual_mean` — the mean power over that slot (`ē_n`, the MAPE
///   reference of Eq. 7), and
/// * `actual_start` — the measured sample at the *next* boundary
///   (`e(n+1)`, the MAPE′ reference of Eq. 6).
///
/// The final slot of the trace has no next boundary and is skipped. This
/// is exactly the reading under which the paper's Table III `N = 288`
/// rows on 5-minute data report `MAPE = 0` at `α = 1`: with one sample
/// per slot, `ē_n = ẽ(n) = ê(n+1)`.
///
/// This is a thin loop over [`StreamedPredictorRun`] — the push-style
/// core that slot streams drive directly — so view-driven and
/// stream-driven metrics passes are bit-identical by construction.
///
/// # Panics
///
/// Panics if `predictor.slots_per_day() != view.slots_per_day()` — running
/// a predictor at the wrong discretization is always a bug.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use solar_predict::{run_predictor, PersistencePredictor};
/// use solar_trace::{PowerTrace, Resolution, SlotsPerDay, SlotView};
///
/// let trace = PowerTrace::new("t", Resolution::from_minutes(30)?, vec![10.0; 96])?;
/// let view = SlotView::new(&trace, SlotsPerDay::new(48)?)?;
/// let mut p = PersistencePredictor::new(48);
/// let log = run_predictor(&view, &mut p);
/// // 96 slots; the last one has no closing boundary sample.
/// assert_eq!(log.len(), 95);
/// # Ok(())
/// # }
/// ```
pub fn run_predictor(view: &SlotView<'_>, predictor: &mut dyn Predictor) -> PredictionLog {
    let n = view.slots_per_day();
    assert_eq!(
        predictor.slots_per_day(),
        n,
        "predictor configured for N={} but view has N={}",
        predictor.slots_per_day(),
        n
    );
    let mut run = StreamedPredictorRun::with_capacity(predictor, n, view.days() * n);
    for day in 0..view.days() {
        for slot in 0..n {
            let sample = view.start_sample(day, slot);
            run.on_slot(day, slot, sample, sample, view.mean_power(day, slot));
        }
    }
    run.finish()
}

/// The metrics pass as a push-style state machine: feed slots in time
/// order with [`StreamedPredictorRun::on_slot`], collect the sink with
/// [`StreamedPredictorRun::finish`].
///
/// A prediction made at slot `n`'s boundary needs the *next* boundary
/// sample as its MAPE′ reference, so the machine holds one pending
/// record and completes it when the following slot arrives; the final
/// slot of a run has no closing boundary and is dropped — exactly the
/// semantics of [`run_predictor`], which wraps this type.
///
/// The sink decides what happens to completed records: a
/// [`PredictionLog`] materializes them (the default; what
/// [`run_predictor`] collects), while a
/// [`pred_metrics::StreamingEval`] folds each record straight into
/// protocol accumulators so a multi-year pass needs O(1) memory.
pub struct StreamedPredictorRun<'a, S: RecordSink = PredictionLog> {
    predictor: &'a mut dyn Predictor,
    feed: PredictionFeed<S>,
}

/// The record-assembly half of a metrics pass, decoupled from *how* the
/// prediction was computed: feed `(slot, prediction, references)` in
/// time order and completed [`PredictionRecord`]s flow into the sink
/// with exactly the pending-boundary semantics of
/// [`StreamedPredictorRun`] (which wraps this type around its own
/// predictor).
///
/// This is what lets a [`CandidateBank`](crate::CandidateBank) drive
/// many candidates' metrics passes from one observation pass: the bank
/// computes each candidate's prediction once per slot, and each
/// candidate owns a `PredictionFeed` — the records, and therefore every
/// evaluated summary, are bit-identical to a solo run's.
pub struct PredictionFeed<S: RecordSink = PredictionLog> {
    sink: S,
    /// `(day, slot, predicted, actual_mean)` of the just-entered slot,
    /// awaiting the next boundary sample.
    pending: Option<(u32, u32, f64, f64)>,
}

impl<S: RecordSink> PredictionFeed<S> {
    /// Starts a feed pushing completed records into `sink`.
    pub fn new(sink: S) -> Self {
        PredictionFeed {
            sink,
            pending: None,
        }
    }

    /// Reconstructs a feed mid-run: `sink` already holds the prefix's
    /// completed records and `pending` is the record awaiting its
    /// closing boundary, both captured at the same slot (see
    /// [`PredictionFeed::pending`]). Continuing the identical slot
    /// sequence pushes a record stream bit-identical to an
    /// uninterrupted run's.
    pub fn resume(sink: S, pending: Option<(u32, u32, f64, f64)>) -> Self {
        PredictionFeed { sink, pending }
    }

    /// The `(day, slot, predicted, actual_mean)` record awaiting its
    /// closing boundary — together with a clone of the sink, the
    /// feed's whole carried state, exposed for day-boundary
    /// checkpointing.
    pub fn pending(&self) -> Option<(u32, u32, f64, f64)> {
        self.pending
    }

    /// The sink as filled so far (checkpoint capture clones it while
    /// the run keeps going).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Feeds the slot at `(day, slot)` with an already-computed
    /// `predicted` value; `true_start` and `true_mean` are the
    /// ground-truth references entering the record.
    pub fn on_slot(
        &mut self,
        day: usize,
        slot: usize,
        predicted: f64,
        true_start: f64,
        true_mean: f64,
    ) {
        self.flush_pending(true_start);
        self.open_pending(day, slot, predicted, true_mean);
    }

    /// Completes the pending record, if any, against the next boundary
    /// sample. [`PredictionFeed::on_slot`] is exactly this followed by
    /// [`PredictionFeed::open_pending`]; a caller that knows up front
    /// which slots an evaluation protocol will discard (the decision
    /// depends only on the record's day and reference mean — never on
    /// the prediction) can call the halves selectively and skip record
    /// assembly on discarded slots entirely, with a bit-identical
    /// record stream reaching the sink.
    pub fn flush_pending(&mut self, true_start: f64) {
        if let Some((p_day, p_slot, predicted, actual_mean)) = self.pending.take() {
            self.sink.push_record(PredictionRecord {
                day: p_day,
                slot: p_slot,
                predicted,
                actual_start: true_start,
                actual_mean,
            });
        }
    }

    /// Opens this slot's record, completed by the next
    /// [`PredictionFeed::flush_pending`] (see there for when to call
    /// the halves directly).
    pub fn open_pending(&mut self, day: usize, slot: usize, predicted: f64, true_mean: f64) {
        self.pending = Some((day as u32, slot as u32, predicted, true_mean));
    }

    /// Ends the feed, dropping the final slot's pending record (it has
    /// no closing boundary) and returning the sink.
    pub fn finish(self) -> S {
        self.sink
    }
}

impl<'a> StreamedPredictorRun<'a, PredictionLog> {
    /// Starts a log-collecting run at discretization `n`.
    ///
    /// # Panics
    ///
    /// Panics if `predictor.slots_per_day() != n`.
    pub fn new(predictor: &'a mut dyn Predictor, n: usize) -> Self {
        Self::with_capacity(predictor, n, 0)
    }

    /// [`StreamedPredictorRun::new`] with the log preallocated for
    /// `slots` records — pass the expected slot count when the horizon
    /// is known up front (a multi-year run logs tens of thousands of
    /// records; growing by reallocation costs repeated copies).
    ///
    /// # Panics
    ///
    /// Panics if `predictor.slots_per_day() != n`.
    pub fn with_capacity(predictor: &'a mut dyn Predictor, n: usize, slots: usize) -> Self {
        Self::with_sink(predictor, n, PredictionLog::with_capacity(n, slots))
    }
}

impl<'a, S: RecordSink> StreamedPredictorRun<'a, S> {
    /// Starts a run feeding completed records into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `predictor.slots_per_day() != n`.
    pub fn with_sink(predictor: &'a mut dyn Predictor, n: usize, sink: S) -> Self {
        assert_eq!(
            predictor.slots_per_day(),
            n,
            "predictor configured for N={} but stream has N={}",
            predictor.slots_per_day(),
            n
        );
        StreamedPredictorRun {
            predictor,
            feed: PredictionFeed::new(sink),
        }
    }

    /// Feeds the slot at `(day, slot)`: the predictor observes
    /// `observed` (possibly corrupted), while `true_start` and
    /// `true_mean` are the ground-truth references entering the record.
    pub fn on_slot(
        &mut self,
        day: usize,
        slot: usize,
        observed: f64,
        true_start: f64,
        true_mean: f64,
    ) {
        let predicted = self.predictor.observe_and_predict(observed);
        self.feed
            .on_slot(day, slot, predicted, true_start, true_mean);
    }

    /// Ends the run, dropping the final slot's pending record (it has no
    /// closing boundary) and returning the sink.
    pub fn finish(self) -> S {
        self.feed.finish()
    }

    /// Captures a [`DayCheckpoint`] of the run at its current
    /// position, leaving the live run untouched. Meaningful at day
    /// boundaries (after the last slot of a day, before the first of
    /// the next), where it pairs with a trace checkpoint at the same
    /// horizon. Returns `None` when the predictor does not support
    /// [`Predictor::snapshot`] — the caller falls back to replay.
    pub fn checkpoint(&self) -> Option<DayCheckpoint<S>>
    where
        S: Clone,
    {
        Some(DayCheckpoint {
            predictor: self.predictor.snapshot()?,
            sink: self.feed.sink().clone(),
            pending: self.feed.pending(),
        })
    }

    /// Resumes a run from the halves of a [`DayCheckpoint`]:
    /// `predictor` carries the snapshotted state (the caller borrows
    /// it out of the checkpoint, or restores it elsewhere), `sink`
    /// holds the prefix's completed records, `pending` its record
    /// awaiting a closing boundary. Feeding the remaining slots makes
    /// the finished sink bit-identical to an uninterrupted run's.
    ///
    /// # Panics
    ///
    /// Panics if `predictor.slots_per_day() != n`.
    pub fn resume_with_sink(
        predictor: &'a mut dyn Predictor,
        n: usize,
        sink: S,
        pending: Option<(u32, u32, f64, f64)>,
    ) -> Self {
        assert_eq!(
            predictor.slots_per_day(),
            n,
            "predictor configured for N={} but stream has N={}",
            predictor.slots_per_day(),
            n
        );
        StreamedPredictorRun {
            predictor,
            feed: PredictionFeed::resume(sink, pending),
        }
    }
}

/// A day-boundary checkpoint of a [`StreamedPredictorRun`]: the deep-
/// copied predictor plus the metrics half (sink + pending record) at
/// the same boundary. Resume by borrowing `predictor` mutably into
/// [`StreamedPredictorRun::resume_with_sink`] together with the other
/// two fields; the continued run's finished sink is bit-identical to
/// an uninterrupted run over the full horizon.
///
/// The metrics half is plain data (`PredictionRecord`s or streaming
/// accumulators, serde-gated in `pred_metrics`); the predictor half is
/// a live state machine and is persisted by keeping the checkpoint
/// itself alive (e.g. inside a fleet cache), not by serialization.
pub struct DayCheckpoint<S: RecordSink> {
    /// The predictor's snapshotted state at the boundary.
    pub predictor: Box<dyn Predictor>,
    /// The sink with every record completed before the boundary.
    pub sink: S,
    /// The record awaiting its closing boundary sample.
    pub pending: Option<(u32, u32, f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::PersistencePredictor;
    use solar_trace::{PowerTrace, Resolution, SlotsPerDay};

    fn view_of(samples: Vec<f64>) -> PowerTrace {
        PowerTrace::new("t", Resolution::from_minutes(30).unwrap(), samples).unwrap()
    }

    #[test]
    fn records_current_interval_references() {
        // 15-minute samples, N = 48 -> 2 samples per slot.
        let mut samples = vec![0.0; 96];
        samples[1] = 42.0; // slot 0 second sample (mean changes)
        samples[2] = 10.0; // slot 1 boundary sample
        let trace = PowerTrace::new("t", Resolution::from_minutes(15).unwrap(), samples).unwrap();
        let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
        let mut p = PersistencePredictor::new(48);
        let log = run_predictor(&view, &mut p);
        let first = log.records()[0];
        // The prediction made at boundary 0 is logged against slot 0: its
        // mean (Eq. 7) and the next boundary sample (Eq. 6).
        assert_eq!(first.day, 0);
        assert_eq!(first.slot, 0);
        assert_eq!(first.predicted, 0.0); // persistence of boundary 0
        assert_eq!(first.actual_start, 10.0); // boundary of slot 1
        assert_eq!(first.actual_mean, 21.0); // (0 + 42)/2
    }

    #[test]
    fn single_sample_slots_make_persistence_exact() {
        // One sample per slot: ē_n equals the boundary sample, so
        // persistence has zero Eq. 7 error — the paper's Table III 0†.
        let trace = view_of((0..96).map(|i| (i * 7 % 23) as f64).collect());
        let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
        let mut p = PersistencePredictor::new(48);
        let log = run_predictor(&view, &mut p);
        for r in &log {
            assert_eq!(r.predicted, r.actual_mean);
        }
    }

    #[test]
    fn last_day_boundary_is_covered() {
        let trace = view_of((0..96).map(|i| i as f64).collect());
        let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
        let mut p = PersistencePredictor::new(48);
        let log = run_predictor(&view, &mut p);
        // The prediction made at day 0 slot 47 closes at day 1 slot 0's
        // boundary and is logged against (0, 47).
        let rec = log
            .records()
            .iter()
            .find(|r| r.day == 0 && r.slot == 47)
            .unwrap();
        assert_eq!(rec.predicted, view.start_sample(0, 47));
        assert_eq!(rec.actual_start, view.start_sample(1, 0));
        assert_eq!(rec.actual_mean, view.mean_power(0, 47));
        // The very last slot has no closing boundary: no record.
        assert!(!log.records().iter().any(|r| r.day == 1 && r.slot == 47));
    }

    /// Feeds a streamed run every slot of `view`, with `observe`
    /// standing in for the boundary sample the predictor sees.
    fn streamed_log(view: &SlotView<'_>, observe: impl Fn(f64) -> f64) -> PredictionLog {
        let mut predictor = PersistencePredictor::new(48);
        let mut run = StreamedPredictorRun::new(&mut predictor, 48);
        for day in 0..view.days() {
            for slot in 0..48 {
                let sample = view.start_sample(day, slot);
                run.on_slot(
                    day,
                    slot,
                    observe(sample),
                    sample,
                    view.mean_power(day, slot),
                );
            }
        }
        run.finish()
    }

    #[test]
    fn observed_identity_matches_run_predictor() {
        let trace = view_of((0..96).map(|i| (i * 13 % 37) as f64).collect());
        let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
        let a = run_predictor(&view, &mut PersistencePredictor::new(48));
        assert_eq!(a, streamed_log(&view, |sample| sample));
    }

    #[test]
    fn observation_transform_corrupts_inputs_not_references() {
        let trace = view_of((0..96).map(|i| 10.0 + i as f64).collect());
        let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
        // The predictor sees zeros everywhere; the log's references must
        // still be the true trace values.
        let log = streamed_log(&view, |_| 0.0);
        for r in &log {
            assert_eq!(r.predicted, 0.0);
            assert!(r.actual_mean > 0.0);
        }
    }

    #[test]
    fn day_checkpoint_resume_is_bit_identical() {
        use crate::wcma::WcmaPredictor;
        let trace = view_of((0..4 * 96).map(|i| (i * 31 % 211) as f64).collect());
        let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
        let n = 48;
        let params = crate::params::WcmaParamsBuilder::new()
            .alpha(0.7)
            .days(2)
            .k(2)
            .slots_per_day(n)
            .build()
            .unwrap();
        let cold = run_predictor(&view, &mut WcmaPredictor::new(params));

        // Run two days, checkpoint at the boundary, resume from the
        // checkpoint alone and feed the remaining days.
        let mut live = WcmaPredictor::new(params);
        let mut run = StreamedPredictorRun::new(&mut live, n);
        for day in 0..2 {
            for slot in 0..n {
                let s = view.start_sample(day, slot);
                run.on_slot(day, slot, s, s, view.mean_power(day, slot));
            }
        }
        let mut ckpt = run.checkpoint().expect("wcma snapshots");
        drop(run);
        let mut resumed = StreamedPredictorRun::resume_with_sink(
            ckpt.predictor.as_mut(),
            n,
            ckpt.sink,
            ckpt.pending,
        );
        for day in 2..view.days() {
            for slot in 0..n {
                let s = view.start_sample(day, slot);
                resumed.on_slot(day, slot, s, s, view.mean_power(day, slot));
            }
        }
        assert_eq!(resumed.finish(), cold);
    }

    #[test]
    #[should_panic(expected = "predictor configured for")]
    fn mismatched_n_panics() {
        let trace = view_of(vec![0.0; 96]);
        let view = SlotView::new(&trace, SlotsPerDay::new(48).unwrap()).unwrap();
        let mut p = PersistencePredictor::new(24);
        let _ = run_predictor(&view, &mut p);
    }
}
