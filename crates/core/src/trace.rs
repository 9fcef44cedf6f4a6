//! Internal shims over `lbmf-trace`, compiled away without the `trace`
//! feature.
//!
//! Emission sites call these macros; with `--no-default-features` every
//! invocation expands to a no-op that merely consumes its arguments, so
//! the disabled build carries zero tracing code (the compile-time half of
//! the "zero-cost when disabled" claim — the runtime half, that the
//! *enabled* record path adds no fence/RMW, is asserted by
//! `tests/trace_fastpath.rs` at the workspace root).
//!
//! `trace_event_corr!` and `trace_mint_corr!` are also exported
//! (`#[doc(hidden)]`, not API) for `lbmf-cilk`'s steal events. Their
//! `#[cfg(feature = "trace")]` gates are evaluated in the crate that
//! invokes them, so a user crate needs its own `trace` feature that
//! enables its `lbmf-trace` dependency.

/// Record an instant event: `trace_event!(Kind)`,
/// `trace_event!(Kind, addr)` or `trace_event!(Kind, addr, dur)`.
macro_rules! trace_event {
    ($kind:ident) => {
        trace_event!($kind, 0usize, 0u64)
    };
    ($kind:ident, $addr:expr) => {
        trace_event!($kind, $addr, 0u64)
    };
    ($kind:ident, $addr:expr, $dur:expr) => {{
        #[cfg(feature = "trace")]
        ::lbmf_trace::record(::lbmf_trace::EventKind::$kind, $addr, $dur);
        #[cfg(not(feature = "trace"))]
        {
            let _ = (&$addr, &$dur);
        }
    }};
}

/// Record an instant event carrying a causal correlation id:
/// `trace_event_corr!(Kind, addr, corr)`.
#[doc(hidden)]
#[macro_export]
macro_rules! trace_event_corr {
    ($kind:ident, $addr:expr, $corr:expr) => {{
        #[cfg(feature = "trace")]
        ::lbmf_trace::record_corr(::lbmf_trace::EventKind::$kind, $addr, 0u64, $corr);
        #[cfg(not(feature = "trace"))]
        {
            let _ = (&$addr, &$corr);
        }
    }};
}

/// Mint a correlation id for one causal serialization chain (0 when
/// tracing is compiled out — chain events then carry no id and the
/// reconstruction simply sees no chains).
#[doc(hidden)]
#[macro_export]
macro_rules! trace_mint_corr {
    () => {{
        #[cfg(feature = "trace")]
        {
            ::lbmf_trace::next_corr_id()
        }
        #[cfg(not(feature = "trace"))]
        {
            0u64
        }
    }};
}

/// Start a span: evaluates to the start timestamp (0 when tracing is
/// compiled out). Pass the result to `trace_span_end!`.
macro_rules! trace_span_start {
    () => {{
        #[cfg(feature = "trace")]
        {
            ::lbmf_trace::now_nanos()
        }
        #[cfg(not(feature = "trace"))]
        {
            0u64
        }
    }};
}

/// End a span begun with `trace_span_start!`: records `Kind` at the start
/// time with `dur` = elapsed.
macro_rules! trace_span_end {
    ($kind:ident, $addr:expr, $start:expr) => {{
        #[cfg(feature = "trace")]
        ::lbmf_trace::record_span(::lbmf_trace::EventKind::$kind, $addr, $start);
        #[cfg(not(feature = "trace"))]
        {
            let _ = (&$addr, &$start);
        }
    }};
}

/// `trace_span_end!` carrying a causal correlation id.
macro_rules! trace_span_end_corr {
    ($kind:ident, $addr:expr, $start:expr, $corr:expr) => {{
        #[cfg(feature = "trace")]
        ::lbmf_trace::record_span_corr(::lbmf_trace::EventKind::$kind, $addr, $start, $corr);
        #[cfg(not(feature = "trace"))]
        {
            let _ = (&$addr, &$start, &$corr);
        }
    }};
}

pub(crate) use {trace_event, trace_span_end, trace_span_end_corr, trace_span_start};
