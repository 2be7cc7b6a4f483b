//! Verified gateway boot: load a serialized model, lint it, and refuse to
//! serve from a model with error-level findings.
//!
//! A gateway that boots from a silently corrupt model file raises false
//! alarms (or none at all) for every home behind it, so the default is
//! strict: [`load_model`] runs the full `dice-verify` analysis and rejects
//! any model with an error-level diagnostic. Operators who need to inspect
//! a damaged model can opt out per boot with
//! [`BootOptions::accept_invalid_model`].

use std::io::Read;

use dice_core::{DiceModel, ModelIoError};
use dice_verify::{has_errors, verify_model, Diagnostic, Severity};

use crate::gateway::HomeGateway;

/// Boot-time policy for model verification.
#[derive(Debug, Clone, Default)]
pub struct BootOptions {
    accept_invalid_model: bool,
}

impl BootOptions {
    /// Strict defaults: error-level findings reject the model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allows booting from a model with error-level findings. The findings
    /// are still returned so the operator sees what they accepted.
    pub fn accept_invalid_model(mut self, accept: bool) -> Self {
        self.accept_invalid_model = accept;
        self
    }
}

/// Why a boot was refused.
#[derive(Debug)]
pub enum BootError {
    /// The model container could not be read at all.
    Load(ModelIoError),
    /// The model decoded but static verification found errors.
    Rejected(Vec<Diagnostic>),
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::Load(e) => write!(f, "model failed to load: {e}"),
            BootError::Rejected(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity() == Severity::Error)
                    .count();
                write!(
                    f,
                    "model rejected by static verification ({errors} error finding(s); \
                     pass accept_invalid_model to boot anyway)"
                )
            }
        }
    }
}

impl std::error::Error for BootError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BootError::Load(e) => Some(e),
            BootError::Rejected(_) => None,
        }
    }
}

impl From<ModelIoError> for BootError {
    fn from(e: ModelIoError) -> Self {
        BootError::Load(e)
    }
}

/// Decodes a model from `reader` and verifies it against `options`.
///
/// On success returns the model together with the full (non-fatal) findings
/// list — warnings and infos the caller may want to log. With strict
/// options an error-level finding yields [`BootError::Rejected`]; with
/// [`BootOptions::accept_invalid_model`] the findings ride along instead.
pub fn load_model<R: Read>(
    reader: R,
    options: &BootOptions,
) -> Result<(DiceModel, Vec<Diagnostic>), BootError> {
    let model = dice_core::read_model_unverified(reader)?;
    let findings = verify_model(&model);
    if let Some(rec) = dice_telemetry::Telemetry::global().recorder() {
        rec.metrics
            .gateway
            .boot_findings_total
            .add(findings.len() as u64);
        for finding in &findings {
            rec.events.push("verify_finding", finding.to_string());
        }
    }
    if has_errors(&findings) && !options.accept_invalid_model {
        return Err(BootError::Rejected(findings));
    }
    Ok((model, findings))
}

impl HomeGateway<DiceModel> {
    /// Boots a gateway from a serialized model, verifying it first.
    ///
    /// Returns the gateway and the verification findings that did not block
    /// the boot (warnings, infos — and errors too when
    /// [`BootOptions::accept_invalid_model`] is set).
    pub fn boot<R: Read>(
        reader: R,
        options: &BootOptions,
    ) -> Result<(Self, Vec<Diagnostic>), BootError> {
        let (model, findings) = load_model(reader, options)?;
        Ok((HomeGateway::new(model), findings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_core::{write_model, ContextExtractor, DiceConfig};
    use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, Timestamp};

    fn model_bytes(corrupt: bool) -> Vec<u8> {
        let mut reg = DeviceRegistry::new();
        let m = reg.add_sensor(SensorKind::Motion, "m", Room::Kitchen);
        let mut log = EventLog::new();
        for minute in 0..30 {
            log.push_sensor(SensorReading::new(
                m,
                Timestamp::from_mins(minute),
                (minute % 2 == 0).into(),
            ));
        }
        let mut model = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .unwrap();
        if corrupt {
            model.transitions_mut().g2g_mut().record(0, 9_999);
        }
        let mut buffer = Vec::new();
        write_model(&model, &mut buffer).unwrap();
        buffer
    }

    #[test]
    fn good_model_boots() {
        let bytes = model_bytes(false);
        let (_gateway, findings) =
            HomeGateway::boot(bytes.as_slice(), &BootOptions::new()).unwrap();
        assert!(!has_errors(&findings));
    }

    #[test]
    fn corrupt_model_is_rejected_by_default() {
        let bytes = model_bytes(true);
        match HomeGateway::boot(bytes.as_slice(), &BootOptions::new()) {
            Err(BootError::Rejected(diags)) => assert!(has_errors(&diags)),
            other => panic!("expected rejection, got {:?}", other.map(|(_, d)| d)),
        }
    }

    #[test]
    fn accept_invalid_overrides_rejection() {
        let bytes = model_bytes(true);
        let options = BootOptions::new().accept_invalid_model(true);
        let (_gateway, findings) = HomeGateway::boot(bytes.as_slice(), &options).unwrap();
        assert!(has_errors(&findings), "findings still reported");
    }

    #[test]
    fn unreadable_bytes_are_a_load_error() {
        match HomeGateway::boot(&b"garbage"[..], &BootOptions::new()) {
            Err(BootError::Load(_)) => {}
            other => panic!("expected load error, got {:?}", other.map(|(_, d)| d)),
        }
    }
}
