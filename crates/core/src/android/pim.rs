//! Android PIM proxy bindings (Contacts, Calendar) — the paper's
//! future-work interfaces (§7), implemented here as extension features.

use std::sync::Arc;

use mobivine_android::context::Context;
use mobivine_android::permissions::Permission;
use mobivine_proxydl::PlatformId;

use crate::api::{CalendarProxy, ContactsProxy, ProxyBase};
use crate::error::ProxyError;
use crate::property::{standard_binding, PropertyBag, PropertyValue};
use crate::registry::ProxyKind;
use crate::types::{CalendarRecord, ContactRecord};

/// The Android binding of the uniform [`ContactsProxy`].
pub struct AndroidContactsProxy {
    properties: PropertyBag,
}

impl Default for AndroidContactsProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl AndroidContactsProxy {
    /// Creates an unconfigured proxy; set the `context` property first.
    pub fn new() -> Self {
        Self {
            properties: PropertyBag::new(standard_binding(
                ProxyKind::Contacts,
                PlatformId::Android,
            )),
        }
    }

    fn context(&self) -> Result<Arc<Context>, ProxyError> {
        self.properties.require_opaque::<Context>("context")
    }
}

impl ProxyBase for AndroidContactsProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl ContactsProxy for AndroidContactsProxy {
    fn find_contacts(&self, query: &str) -> Result<Vec<ContactRecord>, ProxyError> {
        let ctx = self.context()?;
        ctx.enforce_permission(Permission::ReadContacts)?;
        Ok(ctx
            .device()
            .contacts()
            .find_by_name(query)
            .into_iter()
            .map(|c| ContactRecord {
                name: c.name,
                numbers: c.numbers,
            })
            .collect())
    }
}

/// The Android binding of the uniform [`CalendarProxy`].
pub struct AndroidCalendarProxy {
    properties: PropertyBag,
}

impl Default for AndroidCalendarProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl AndroidCalendarProxy {
    /// Creates an unconfigured proxy; set the `context` property first.
    pub fn new() -> Self {
        Self {
            properties: PropertyBag::new(standard_binding(
                ProxyKind::Calendar,
                PlatformId::Android,
            )),
        }
    }

    fn context(&self) -> Result<Arc<Context>, ProxyError> {
        self.properties.require_opaque::<Context>("context")
    }
}

impl ProxyBase for AndroidCalendarProxy {
    fn set_property(&self, key: &str, value: PropertyValue) -> Result<(), ProxyError> {
        self.properties.set(key, value)
    }
}

impl CalendarProxy for AndroidCalendarProxy {
    fn entries_between(&self, from_ms: u64, to_ms: u64) -> Result<Vec<CalendarRecord>, ProxyError> {
        let ctx = self.context()?;
        ctx.enforce_permission(Permission::ReadCalendar)?;
        Ok(ctx
            .device()
            .calendar()
            .entries_between(from_ms, to_ms)
            .into_iter()
            .map(|e| CalendarRecord {
                title: e.title,
                start_ms: e.start_ms,
                end_ms: e.end_ms,
                location: e.location,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobivine_android::permissions::PermissionSet;
    use mobivine_android::{AndroidPlatform, SdkVersion};
    use mobivine_device::Device;

    fn platform() -> AndroidPlatform {
        let device = Device::builder().build();
        device
            .contacts()
            .add("Region Supervisor", &["+91-100"], &[]);
        device.contacts().add("Dispatcher", &["+91-200"], &[]);
        device
            .calendar()
            .add("Site visit", 1_000, 2_000, "Depot")
            .unwrap();
        AndroidPlatform::new(device, SdkVersion::M5Rc15)
    }

    #[test]
    fn contacts_search() {
        let platform = platform();
        let proxy = AndroidContactsProxy::new();
        proxy
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        let found = proxy.find_contacts("supervisor").unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].numbers, vec!["+91-100"]);
    }

    #[test]
    fn calendar_query() {
        let platform = platform();
        let proxy = AndroidCalendarProxy::new();
        proxy
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        let entries = proxy.entries_between(0, 5_000).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].title, "Site visit");
        assert!(proxy.entries_between(3_000, 5_000).unwrap().is_empty());
    }

    #[test]
    fn pim_permissions_enforced() {
        let platform = AndroidPlatform::with_permissions(
            Device::builder().build(),
            SdkVersion::M5Rc15,
            PermissionSet::new(),
        );
        let contacts = AndroidContactsProxy::new();
        contacts
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        assert_eq!(
            contacts.find_contacts("x").unwrap_err().kind(),
            crate::error::ProxyErrorKind::Security
        );
        let calendar = AndroidCalendarProxy::new();
        calendar
            .set_property("context", PropertyValue::opaque(platform.new_context()))
            .unwrap();
        assert_eq!(
            calendar.entries_between(0, 1).unwrap_err().kind(),
            crate::error::ProxyErrorKind::Security
        );
    }
}
