//! Navigation and schema edits (§3.1): picking in the forest and the
//! network, the level switches of Diagram 1, the schema-modification menu,
//! and the forest view's *move* and *pan*.

use isis_core::{BaseKind, SchemaNode};
use isis_views::PageSpec;

use super::Session;
use crate::command::Command;
use crate::error::SessionError;
use crate::state::{Mode, Selection};

/// How far, in cells either way, the forest view pans and a box moves from
/// its laid-out place. Both saturate at this edge of the schema plane,
/// which keeps layout arithmetic far from overflow and the ASCII render of
/// a panned forest within a few megabytes.
const PLANE_EDGE: i32 = 1 << 10;

/// Shifts a forest-view offset by `(dx, dy)`, saturating at the plane's
/// edge.
fn nudge(at: &mut (i32, i32), dx: i32, dy: i32) {
    at.0 = at.0.saturating_add(dx).clamp(-PLANE_EDGE, PLANE_EDGE);
    at.1 = at.1.saturating_add(dy).clamp(-PLANE_EDGE, PLANE_EDGE);
}

impl Session {
    /// Navigation and schema edits.
    pub(super) fn apply_schema(&mut self, cmd: Command) -> Result<(), SessionError> {
        match cmd {
            Command::Pick(node) => {
                let name = self.node_name(node)?;
                self.selection = Some(node.into());
                if matches!(node, SchemaNode::Grouping(_)) && self.mode == Mode::Network {
                    // Groupings have no outgoing arcs; the network hands
                    // back to the forest.
                    self.mode = Mode::Forest;
                }
                self.say(format!("schema selection: {name}"));
            }
            Command::PickByName(name) => {
                let node = self.db.node_by_name(&name)?;
                return self.apply(Command::Pick(node));
            }
            Command::PickAttr(a) => {
                let name = self.db.attr(a)?.name.clone();
                self.selection = Some(Selection::Attr(a));
                self.say(format!("schema selection: attribute {name}"));
            }
            Command::ViewAssociations => {
                let class = self.class_or_owner("view associations needs a class")?;
                self.selection = Some(Selection::Class(class));
                self.mode = Mode::Network;
            }
            Command::ViewContents => {
                let node = match self.selection {
                    Some(sel) => sel.as_node().ok_or_else(|| {
                        SessionError::BadSelection("view contents needs a class or grouping".into())
                    })?,
                    None => return Err(SessionError::BadSelection("nothing is selected".into())),
                };
                self.pages = vec![PageSpec::new(node)];
                self.mode = Mode::Data;
            }
            Command::Pop => match &self.mode {
                Mode::Network | Mode::Worksheet => self.mode = Mode::Forest,
                Mode::Data if self.pages.len() > 1 => {
                    self.pages.pop();
                }
                Mode::Data => self.mode = Mode::Forest,
                Mode::ConstantPick { .. } => {
                    // Cancel the temporary visit.
                    self.mode = Mode::Worksheet;
                    self.say("constant selection cancelled");
                }
                Mode::Forest => {}
            },
            Command::Rename(name) => {
                let selection = self.schema_selection()?;
                self.snapshot();
                match selection {
                    Selection::Class(c) => self.db.rename_class(c, &name)?,
                    Selection::Attr(a) => self.db.rename_attr(a, &name)?,
                    Selection::Grouping(g) => self.db.rename_grouping(g, &name)?,
                };
                self.say(format!("renamed to {name}"));
            }
            Command::CreateSubclass(name) => {
                let parent = self.selected_class()?;
                self.snapshot();
                let c = self.db.create_subclass(parent, &name)?;
                self.selection = Some(Selection::Class(c));
                self.say(format!("created subclass {name}"));
            }
            Command::CreateAttribute { name, multiplicity } => {
                let class = self.selected_class()?;
                self.snapshot();
                // The value class starts at STRINGS; the user then applies
                // (re)specify value class, as in §4.2's all_inst flow.
                let strings = self.db.predefined(BaseKind::Strings);
                let a = self
                    .db
                    .create_attribute(class, &name, strings, multiplicity)?;
                self.selection = Some(Selection::Attr(a));
                self.say(format!("created attribute {name} (value class STRINGS)"));
            }
            Command::SpecifyValueClass(node) => {
                let a = self.selected_attr()?;
                self.snapshot();
                match node {
                    SchemaNode::Class(c) => self.db.respecify_value_class(a, c)?,
                    SchemaNode::Grouping(g) => self.db.respecify_value_class(a, g)?,
                };
                let name = self.node_name(node)?;
                self.say(format!("value class is now {name}"));
            }
            Command::CreateGrouping { name, attr } => {
                let class = self.selected_class()?;
                self.snapshot();
                let g = self.db.create_grouping(class, &name, attr)?;
                self.selection = Some(Selection::Grouping(g));
                self.say(format!("created grouping {name}"));
            }
            Command::Delete => {
                let selection = self.schema_selection()?;
                self.snapshot();
                match selection {
                    Selection::Class(c) => self.db.delete_class(c)?,
                    Selection::Attr(a) => self.db.delete_attr(a)?,
                    Selection::Grouping(g) => self.db.delete_grouping(g)?,
                };
                self.selection = None;
                self.say("deleted");
            }
            Command::DisplayPredicate => {
                let msg = match self.schema_selection()? {
                    Selection::Class(c) => {
                        let class = self.db.class(c)?;
                        match class.kind.predicate() {
                            Some(p) => format!("{}: {}", class.name, self.display_predicate(p)?),
                            None => format!("{} has no defining predicate", class.name),
                        }
                    }
                    Selection::Grouping(g) => {
                        let gr = self.db.grouping(g)?;
                        format!(
                            "{}: sets of {} grouped by common value of their {} attribute",
                            gr.name,
                            self.db.class(gr.parent)?.name,
                            self.db.attr(gr.on_attr)?.name
                        )
                    }
                    Selection::Attr(a) => {
                        let attr = self.db.attr(a)?;
                        match &attr.derivation {
                            Some(d) => format!("{} derivation: {d}", attr.name),
                            None => format!("{} has no derivation", attr.name),
                        }
                    }
                };
                self.say(msg);
            }
            Command::Move(dx, dy) => {
                let node = self.schema_selection()?.as_node().ok_or_else(|| {
                    SessionError::BadSelection("move applies to classes and groupings".into())
                })?;
                let at = match self.offsets.iter().position(|(n, _)| *n == node) {
                    Some(i) => i,
                    None => {
                        self.offsets.push((node, (0, 0)));
                        self.offsets.len() - 1
                    }
                };
                nudge(&mut self.offsets[at].1, dx, dy);
            }
            Command::Pan(dx, dy) => nudge(&mut self.pan, dx, dy),
            other => unreachable!("{other:?} is not a schema command"),
        }
        Ok(())
    }
}
