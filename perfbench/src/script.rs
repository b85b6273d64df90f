//! Scripted sessions shared by the interactive workloads: command lines
//! with placeholders the oracle replay resolves, and source edits beside
//! the commands.

use clio_cli::engine::{Outcome, Shell};
use clio_relational::relation::Relation;

/// Stands for the first workspace id listed in the previous response
/// (`workspace <id>: ...`), so a script can `confirm` what a `chase`
/// created without knowing ids in advance.
pub const FIRST_ID: &str = "$FIRST";

/// One step of a scripted session.
#[derive(Debug, Clone)]
pub enum Step {
    /// A shell command line.
    Cmd(String),
    /// A source edit through `Session::replace_relation`.
    Edit(Relation),
}

impl Step {
    /// The kind the step is reported under: the command kind, or `edit`.
    pub fn kind(&self) -> &'static str {
        match self {
            Step::Cmd(line) => clio_cli::command::parse(line).map_or("invalid", |c| c.kind()),
            Step::Edit(_) => "edit",
        }
    }
}

/// Run one step on a shell, returning its response text (`ok` for an
/// applied edit, `error: ...` for a failure).
pub fn execute(shell: &mut Shell, step: &Step) -> String {
    match step {
        Step::Cmd(line) => match shell.execute(line) {
            Outcome::Continue(text) => text,
            Outcome::Quit => String::new(),
        },
        Step::Edit(rel) => match shell.session.replace_relation(rel.clone()) {
            Ok(()) => "ok\n".to_owned(),
            Err(e) => format!("error: {e}\n"),
        },
    }
}

/// The first `workspace <id>:` id in a response.
fn first_workspace_id(response: &str) -> Option<String> {
    response.lines().find_map(|l| {
        let rest = l.trim_start().strip_prefix("workspace ")?;
        let (id, _) = rest.split_once(':')?;
        Some(id.to_owned())
    })
}

/// Replay `template` on `shell`, substituting [`FIRST_ID`] from the
/// previous response. Returns the resolved steps and every response —
/// the oracle the measured replays are compared with.
pub fn resolve(shell: &mut Shell, template: &[Step]) -> (Vec<Step>, Vec<String>) {
    let mut steps = Vec::with_capacity(template.len());
    let mut outputs: Vec<String> = Vec::with_capacity(template.len());
    for step in template {
        let step = match step {
            Step::Cmd(line) if line.contains(FIRST_ID) => {
                let id = outputs
                    .last()
                    .and_then(|r| first_workspace_id(r))
                    .unwrap_or_else(|| "0".to_owned());
                Step::Cmd(line.replace(FIRST_ID, &id))
            }
            other => other.clone(),
        };
        outputs.push(execute(shell, &step));
        steps.push(step);
    }
    (steps, outputs)
}

/// Whether a response must match the oracle byte for byte. `explain`
/// marks cache-warm plan nodes, so a cached replay legitimately differs
/// from the uncached oracle there; it is checked for errors only.
pub fn compared(step: &Step) -> bool {
    step.kind() != "explain"
}
